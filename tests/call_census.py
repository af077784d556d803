"""The calls a set of watched functions make themselves.

Several tier-1 checks pin a quiet path's shape: a hook reads its dicts
with ``in`` and a subscript, a clean scan calls nothing.  A check that
counts only builtin calls misses a Python helper planted back into the
watched code, so :class:`CallCensus` counts both kinds, from the caller's
side: a ``c_call`` event in a watched frame, and a ``call`` event whose
caller frame is a watched one.  Calls further down belong to the callee.

Use it as a context manager around the code to watch, once or many
times; the counts accumulate.  The collector is off inside: a garbage
collection mid-run would run other code's callbacks in a watched frame.
"""

import gc
import sys
from collections import Counter


class CallCensus:
    """Builtin and Python calls made by ``functions``' own frames."""

    def __init__(self, *functions):
        self._codes = {function.__code__: function.__qualname__
                       for function in functions}
        #: ``"caller: builtin"`` per builtin call a watched frame made
        self.builtins = []
        #: ``"caller: callee"`` per Python call a watched frame made
        self.calls = []
        #: watched qualname -> frames of it entered
        self.entered = Counter()
        self._collecting = False

    def _profile(self, frame, event, arg):
        codes = self._codes
        if event == "c_call":
            if frame.f_code in codes:
                self.builtins.append(
                    f"{codes[frame.f_code]}: {arg.__qualname__}")
        elif event == "call":
            code = frame.f_code
            if code in codes:
                self.entered[codes[code]] += 1
            caller = frame.f_back
            if caller is not None and caller.f_code in codes:
                self.calls.append(
                    f"{codes[caller.f_code]}: {code.co_qualname}")

    def __enter__(self):
        self._collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(None)
        if self._collecting:
            gc.enable()
