"""Pickle-path guard: which types pickle through Python-level hooks.

A warm snapshot pickles hundreds of thousands of objects.  Types the C
pickler handles natively (plain classes, tuples, dicts) cost almost
nothing per object; a type that defines ``__reduce__`` /
``__getstate__`` / ``__setstate__`` (or inherits one, as every frozen
slotted dataclass does) runs a Python function per instance on capture,
fork, or both.  Provenance hops used to be such a dataclass and took
over 40% of L-DC capture and fork unnoticed; as a named tuple a hop's
only hook is ``__getnewargs__``, which pickles it as its field tuple
(unpickling is one ``__new__`` call, no per-field loop).  This test
pins the list of types that may take a Python-level path, so the next
one to enter the snapshot graph fails here instead.
"""

import io
import pickle
import types

from .conftest import mockup_net

_HOOKS = ("__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
          "__getnewargs__", "__getnewargs_ex__")

# owner class -> the Python-level pickle hooks it is allowed to define.
EXPECTED = {
    "random.Random": ["__getstate__", "__reduce__", "__setstate__"],
    "repro.firmware.bgp.messages.PathAttributes": ["__reduce__"],
    "repro.net.ip.IPv4Address": ["__reduce__"],
    "repro.net.ip.Prefix": ["__reduce__"],
    "repro.net.packet.MacAddress": ["__reduce__"],
    "repro.provenance.chain.Hop": ["__getnewargs__"],
}


class _TypeRecorder(pickle.Pickler):
    """Records the type of every object the pickler reduces."""

    def __init__(self, fh):
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.types = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return NotImplemented


def python_hooks(classes) -> dict:
    """owner class name -> sorted hook names, for every hook that
    attribute lookup on one of ``classes`` resolves to a Python
    function."""
    found = {}
    for cls in classes:
        for name in _HOOKS:
            owner = next((k for k in cls.__mro__ if name in k.__dict__),
                         None)
            if owner is not None and isinstance(owner.__dict__[name],
                                                types.FunctionType):
                key = f"{owner.__module__}.{owner.__qualname__}"
                found.setdefault(key, set()).add(name)
    return {key: sorted(names) for key, names in found.items()}


def test_only_known_types_pickle_through_python_hooks():
    net = mockup_net("ctnr", emulation_id="t-pickle-path")
    recorder = _TypeRecorder(io.BytesIO())
    recorder.dump(net)
    assert python_hooks(recorder.types) == EXPECTED
