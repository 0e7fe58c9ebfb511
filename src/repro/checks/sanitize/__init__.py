"""Runtime invariant sanitizer (dev mode).

Off by default; enable with ``REPRO_SANITIZE=1`` (read at import), the
CLI's ``--sanitize`` flag, or :func:`enable`. When off, every
instrumented site costs one module-attribute read. When on, probes
validate live engine state against the paper's invariants and raise
:class:`SanitizerViolation` on the first breach.

Probe catalog (see :mod:`repro.checks.sanitize.probes`):

========================  ==================================================
``check_csr``             CSR structure: offsets/dst/weights consistency
``check_frontier``        frontier in range, duplicate-free
``check_symmetrized``     symmetric view doubles edges over the same V
``monotone_watchdog``     accepted updates move in the selection direction
``check_reduce_settled``  no reduced candidate still beats its destination
``check_cg_containment``  edge_mask marks exactly the CG's (u, v, w) in G
``audit_certified_fixed_point``  Theorem 1 certificates hold at sampled v
``audit_metric_names``    live registry names are all registered
========================  ==================================================
"""

from repro.checks.sanitize import probes  # noqa: F401
from repro.checks.sanitize.runtime import (  # noqa: F401
    SanitizerViolation,
    disable,
    enable,
    enabled,
    is_enabled,
    report,
)
