"""Terms of the WebdamLog language.

A *term* is either a :class:`Constant` (a data value such as ``"sea.jpg"`` or
``42``) or a :class:`Variable` (written ``$x`` in the surface syntax).  Terms
appear in three positions inside atoms:

* ordinary argument positions (``pictures@alice($id, $name)``),
* the *relation* position (``$R@alice(...)``), and
* the *peer* position (``pictures@$P(...)``).

Allowing variables in the relation and peer positions is one of the two main
novelties of WebdamLog compared with classical datalog (the other being
delegation), so the term model is deliberately uniform: the same
:class:`Variable` class is used in all three positions.
"""

from __future__ import annotations

from typing import Union

#: Python types allowed as constant payloads.  ``bytes`` is included because
#: the Wepic application stores picture contents as binary blobs.
ConstantValue = Union[str, int, float, bool, bytes, None]

_ALLOWED_CONSTANT_TYPES = (str, int, float, bool, bytes, type(None))


class Term:
    """Abstract base class of :class:`Constant` and :class:`Variable`."""

    __slots__ = ()


def render_constant(value: ConstantValue) -> str:
    """The surface syntax of a ground value — ``str(Constant(value))``
    without building the wrapper (facts render their values through it)."""
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, bytes):
        return f'b"{value.hex()}"'
    return repr(value)


class Constant(Term):
    """A ground data value.

    Constants wrap a plain Python value (``str``, ``int``, ``float``,
    ``bool``, ``bytes`` or ``None``).  Two constants are equal when their
    wrapped values are equal *and* of the same type, so ``Constant(1)`` and
    ``Constant(True)`` are distinct even though ``1 == True`` in Python.
    """

    __slots__ = ("value",)

    def __init__(self, value: ConstantValue):
        if not isinstance(value, _ALLOWED_CONSTANT_TYPES):
            raise TypeError(
                f"unsupported constant type {type(value).__name__!r}; "
                "expected str, int, float, bool, bytes or None"
            )
        self.value = value

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self) -> int:
        return hash((Constant, type(self.value).__name__, self.value))

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return render_constant(self.value)


class Variable(Term):
    """A logical variable, written ``$name`` in the surface syntax.

    The leading ``$`` is *not* part of the stored name: ``Variable("x")``
    prints as ``$x``.  Variable names are case-sensitive.

    The special name ``_`` denotes an anonymous ("don't care") variable;
    every occurrence of ``$_`` is distinct for the purposes of safety
    analysis, which is handled by the parser assigning fresh names.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("variable name must be a non-empty string")
        if name.startswith("$"):
            name = name[1:]
        if not name:
            raise ValueError("variable name must not be just '$'")
        self.name = name
        # Kept: every substitution lookup hashes its variable.
        self._hash = hash((Variable, name))

    def __reduce__(self):
        # Rebuild from the name: the kept hash is this process's.
        return (Variable, (self.name,))

    def is_anonymous(self) -> bool:
        """Return ``True`` for the anonymous variable ``$_`` (or parser-generated ``$_N``)."""
        return self.name == "_" or self.name.startswith("_anon")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"${self.name}"


def make_term(value) -> Term:
    """Coerce a Python value into a :class:`Term`.

    * existing :class:`Term` instances are returned unchanged;
    * strings starting with ``$`` become :class:`Variable`;
    * everything else becomes :class:`Constant`.

    This is a convenience for building programs programmatically, e.g.
    ``Atom.of("pictures", "alice", "$id", "$name")``.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str) and value.startswith("$"):
        return Variable(value)
    return Constant(value)
