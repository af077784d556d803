"""Shared test fixtures, plus the opt-in sanitizer harness.

Setting ``REPRO_SANITIZE=1`` wraps every kernel run entry point
(``run_until_idle`` / ``run_until`` / ``run_for``) so that, whenever a
run completes *normally*, the pure state-scan sanitizers from
:mod:`repro.verify.sanitizers` audit the machine: task conservation,
hint-ring accounting, and token liveness.  Any broken invariant fails
the test with a :class:`~repro.verify.sanitizers.SanitizerError` even if
the test's own assertions would have passed — the same way ASan turns a
silently-corrupting test into a failing one.

Runs that end by raising are left alone: several tests intentionally
drive the kernel into a crash (e.g. a native class returning a bogus
pick) and assert on the exception; the machine is *expected* to be
inconsistent at that point.

CI runs the tier-1 suite twice: once plain, once with this harness on.
"""

import os

from tests.source_trees import forget

_SANITIZE = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")

if _SANITIZE:
    from repro.simkernel.kernel import Kernel
    from repro.verify import assert_kernel_state

    def _wrap(method_name):
        original = getattr(Kernel, method_name)

        def wrapped(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            assert_kernel_state(self)
            return result

        wrapped.__name__ = method_name
        wrapped.__wrapped__ = original
        return wrapped

    for _name in ("run_until_idle", "run_until", "run_for"):
        setattr(Kernel, _name, _wrap(_name))


def pytest_runtest_teardown(item, nextitem):
    """Drop the shared source trees once the next test is in another
    module (see :mod:`tests.source_trees`)."""
    if nextitem is None or nextitem.module is not item.module:
        forget()
