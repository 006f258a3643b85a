"""Selecting and ranking pictures by their annotations.

Functionality 5 of the Wepic feature list: "Select and rank photos based on
their annotations."  Ranking combines the pictures visible in the *Attendee
pictures* frame with the ratings gathered from the selected attendees (the
``attendeeRatings`` view) and the user's own ratings, and orders pictures by
average rating (ties broken by number of ratings, then by id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.facts import Fact
from repro.wepic.pictures import Picture


@dataclass(frozen=True)
class PictureRanking:
    """One entry of the ranked picture list."""

    picture: Picture
    average_rating: float
    rating_count: int

    def __str__(self) -> str:
        return (f"{self.picture.name} by {self.picture.owner}: "
                f"{self.average_rating:.2f} stars ({self.rating_count} ratings)")


def collect_ratings(rating_facts: Iterable[Fact]) -> Dict[int, List[int]]:
    """Group rating values by picture id from ``rate``-style facts."""
    by_picture: Dict[int, List[int]] = {}
    for fact in rating_facts:
        if len(fact.values) < 2:
            continue
        picture_id, value = fact.values[0], fact.values[1]
        try:
            by_picture.setdefault(int(picture_id), []).append(int(value))
        except (TypeError, ValueError):
            continue
    return by_picture


def rank_pictures(pictures: Sequence[Picture], rating_facts: Iterable[Fact],
                  min_rating: float = 0.0,
                  include_unrated: bool = True) -> Tuple[PictureRanking, ...]:
    """Rank ``pictures`` by average rating.

    Parameters
    ----------
    pictures:
        The candidate pictures (typically the attendee-pictures view).
    rating_facts:
        ``rate``-style facts (picture id, rating value) from any peer.
    min_rating:
        Pictures whose average rating is below this threshold are dropped
        (unrated pictures are kept only when ``include_unrated`` is true and
        the threshold is 0).
    include_unrated:
        Whether pictures without any rating appear at the bottom of the list.
    """
    ratings = collect_ratings(rating_facts)
    ranked: List[PictureRanking] = []
    for picture in pictures:
        values = ratings.get(picture.picture_id, [])
        if values:
            average = sum(values) / len(values)
        else:
            if not include_unrated or min_rating > 0.0:
                continue
            average = 0.0
        if average < min_rating:
            continue
        ranked.append(PictureRanking(picture=picture, average_rating=average,
                                     rating_count=len(values)))
    ranked.sort(key=lambda r: (-r.average_rating, -r.rating_count,
                               r.picture.owner, r.picture.picture_id))
    return tuple(ranked)
