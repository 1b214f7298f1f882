"""Regularized singular integrals and their numerical verification.

The library evaluates the gamma-family scalars, regularized Beta/Mellin
integrals, the Gauss hypergeometric family with imaginary parameters, and
Legendre functions of the second kind, and ships a claim registry plus CLI
that turns each supported identity or weak limit into a reproducible
verdict artifact.
"""

from .complexfn import (
    AccuracyContract,
    DomainError,
    PoleError,
    digamma,
    duplication_residual,
    gamma,
    log_gamma,
    trigamma,
)
from .quad import (
    ConvergenceError,
    EndpointExponents,
    IntegralResult,
    QuadratureSpec,
    integrate_finite,
    integrate_pairing,
    integrate_semi_infinite,
)
from .distrib import (
    PROBES,
    EpsilonLadder,
    PairingSweepResult,
    Probe,
    beta,
    beta_reg,
    beta_semi_infinite,
    delta_claim_sweep,
    delta_target,
    mellin_inverse_check,
    mellin_inverse_sweep,
    mellin_forward_sweep,
    mellin_reg_forward,
    omega_eps,
)
from .hyper import (
    f_derivatives,
    f_factor,
    family_closed_form,
    family_duplication_form,
    family_weak_limit_sweep,
    gauss_sum,
    hyp2f1,
    oscillatory_limit_sweep,
)
from .legendre import (
    BranchCutError,
    EtaSolution,
    LargeNuAsymptotics,
    adjudicate_relation,
    adjudicate_relations,
    asymptotic_large_nu,
    near_one_laws,
    q_nu,
    q_nu_itau_direct,
    q_nu_mu,
    relation_rhs,
    solve_eta,
)

__version__ = "0.1.0"
