"""Package names that resolve from their module on first use (PEP 562).

A deployment loads only the layers it runs: ``import repro`` does not pay for
the TCP transport (asyncio, ssl, sockets), the gossip overlay or SQLite,
while ``repro.api.TcpTransport``, ``repro.net.GossipNode`` and
``repro.store.SqliteBackend`` keep working as names of their packages.
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(namespace: Dict[str, Any], sources: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package whose globals are
    ``namespace``: ``sources`` maps a module's absolute name to the names
    the package takes from it.  A name is imported the first time it is
    asked for and then kept in ``namespace``, so the next read is an
    ordinary attribute lookup and ``is`` the module's own object.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
