"""Reference solvers, protection schemes and the cost model.

- :mod:`repro.core.cg` — the textbook Conjugate Gradient method
  (paper Algorithm 1);
- :mod:`repro.core.pcg` — preconditioned CG (the Section-6 extension)
  and the Jacobi/SSOR preconditioners;
- :mod:`repro.core.krylov` — plain BiCGstab, the fault-free reference
  for the BiCGstab plugin;
- :mod:`repro.core.stability` — Chen's verification tests
  (orthogonality + recomputed residual) used by ONLINE-DETECTION;
- :mod:`repro.core.methods` — scheme/method descriptors and cost
  models for the three protection schemes.

The fault-tolerant solvers run on the resilience engine: one entry
point, :func:`repro.resilience.run_ft_method`, dispatches a
:class:`Method` to its recurrence plugin (:mod:`repro.resilience`).
"""

from repro.core.cg import cg, CGResult
from repro.core.pcg import pcg, jacobi_preconditioner, ssor_preconditioner
from repro.core.krylov import bicgstab
from repro.core.stability import orthogonality_check, residual_check, chen_verify
from repro.core.methods import Scheme, Method, CostModel, SchemeConfig

__all__ = [
    "cg",
    "CGResult",
    "pcg",
    "jacobi_preconditioner",
    "ssor_preconditioner",
    "bicgstab",
    "orthogonality_check",
    "residual_check",
    "chen_verify",
    "Scheme",
    "Method",
    "CostModel",
    "SchemeConfig",
]
