"""Iterative solvers for the reduced system: preconditioned MINRES on the
mixed form of a lambda split, and Jacobi-preconditioned CG otherwise, both
stopped by one rule (`_iterate`).  MINRES may start from a guess at the
mixed solution (a study's earlier solutions, extrapolated in 1/lambda),
which it uses only where its residual is below the load's; the tolerance
stays relative to the load, and the steps are counted from the start."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy as axpy, dscal as scal

from .assembly import LambdaSplit, SparseSystem
from .space import DiscreteFunction

logger = logging.getLogger(__name__)

# runaway residual growth signals an indefinite or singular operator
_DIVERGENCE_FACTOR = 1e12


class SolverError(RuntimeError):
    """The solve failed: iteration cap or residual floor reached, an
    indefinite or singular matrix, or a breakdown."""


@dataclass
class SolverConfig:
    tol: float = 1e-10
    max_iterations: int | None = None  # None: max(1000, ceil(20*sqrt(n_free)))
    preconditioner: str = "diagonal"   # "diagonal" or "none"

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must be in (0,1)")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.preconditioner not in ("diagonal", "none"):
            raise ValueError("preconditioner must be 'diagonal' or 'none'")

    def iteration_cap(self, n_free: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return max(1000, math.ceil(20.0 * math.sqrt(max(n_free, 1))))


@dataclass
class SolveResult:
    """The solution with its lifting, the steps taken, the final residual
    norm and the norm per step; `mixed` is the MINRES solution [u_f; p] of
    the mixed form, from which a solve at another lambda may start."""

    function: DiscreteFunction
    iterations: int
    residual: float
    residual_history: np.ndarray
    mixed: np.ndarray | None = None


def solve_spd(system: SparseSystem, config: SolverConfig | None = None,
              start: np.ndarray | None = None) -> SolveResult:
    """Solve the reduced system and merge the solution with the Dirichlet
    lifting: by MINRES on the mixed form when the system carries a lambda
    split (`_minres`, from `start`, a guess at its `SolveResult.mixed`,
    where one is given), otherwise by (optionally Jacobi-preconditioned) CG
    (`_cg`) from zero, both stopped by `_iterate`.  `iterations` counts the
    steps of the method that ran, and `residual` is its final residual norm
    (see those functions)."""
    if config is None:
        config = SolverConfig()
    full = system.lifting.copy()
    method = "MINRES" if system.split is not None else "CG"
    if system.n_free == 0:
        steps = iter([(np.zeros(0), 0.0, 0.0)])  # nothing to solve
    elif method == "MINRES":
        steps = _minres(system.split, config, start)
    else:
        steps = _cg(system.matrix, system.load, config)
    x, history = _iterate(method, steps, config.tol, config.iteration_cap(system.n_free))
    full[system.free_indices] = x[:system.n_free]
    return SolveResult(DiscreteFunction(system.dofmap, full), max(len(history) - 1, 0),
                       float(history[-1]) if history else 0.0, np.asarray(history),
                       x if method == "MINRES" and system.n_free else None)


def _iterate(method: str, steps, tol: float, cap: int):
    """Run the recurrence `steps` of `method` to its stop, and log the stop.

    `steps` yields triples: first the starting x, the norm of the load, to
    which `tol` is relative, and the true residual norm of that x; then one
    (x, residual norm of x, `confirmed`) per step.  `confirmed` marks the
    true residual, computed from x because the recurrence's estimate met
    `tol`; resumed after it, the recurrence restarts from x with that
    residual.  The solve stops at the tolerance once a true residual meets
    `tol` (the start's with no step), at the residual floor once a restart
    gained less than a factor 0.9, and at the iteration cap after `cap`
    steps; the last two raise `SolverError`, as does a load whose norm
    overflows.  Returns the last x and the norms per step, from the start's
    (empty for a zero load).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        x, norm_b, start = next(steps)
    if not math.isfinite(norm_b):
        raise SolverError(f"{method}: the norm of the load overflows to {norm_b} "
                          "in double precision (rescale the data)")
    if norm_b == 0.0:
        logger.info("%s: 0 iterations, relative residual 0.000e+00, stopped at the "
                    "tolerance", method)
        return x, []
    history, last_restart = [start], math.inf
    reason = "tolerance" if start <= tol * norm_b else None
    while reason is None:
        x, residual, confirmed = next(steps)
        history.append(residual)
        if confirmed and residual <= tol * norm_b:
            reason = "tolerance"
        elif confirmed and residual >= 0.9 * last_restart:
            reason = "residual floor"
        elif len(history) > cap:
            reason = "iteration cap"
        elif confirmed:
            last_restart = residual
    relative = history[-1] / norm_b
    logger.info("%s: %d iterations, relative residual %.3e, stopped at the %s",
                method, len(history) - 1, relative, reason)
    if reason == "residual floor":
        raise SolverError(
            f"attainable residual floor reached: true relative residual {relative:.3e} "
            f"cannot meet tol={tol:.1e} in double precision (relax tol)")
    if reason == "iteration cap":
        raise SolverError(f"{method} did not converge within {cap} iterations "
                          f"(relative residual {relative:.3e})")
    return x, history


def _cg(a_mat, b: np.ndarray, config: SolverConfig):
    """Jacobi-preconditioned CG on A x = b, from x = 0, as `_iterate` steps:
    the norms are those of the residual b - A x.

    A step's estimate meets `tol` once |r| <= tol * |b| and the
    preconditioned residual norm meets the same relative reduction; the second
    condition guards the small-scale solution components when the matrix
    carries widely different row scales (large lambda).
    """
    n = len(b)
    if config.preconditioner == "diagonal":
        diag = a_mat.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError("non-positive diagonal entry: matrix is not SPD "
                              "(missing Dirichlet constraints?)")
        inv_diag = 1.0 / diag
    else:
        inv_diag = np.ones(n)
    norm_b, norm_bp = np.linalg.norm(b), math.sqrt(b @ (inv_diag * b))
    x, r = np.zeros(n), b.copy()
    yield x, norm_b, norm_b
    while True:
        # (re)start from x with r = b - A x
        z = inv_diag * r
        rho = r @ z
        p = z.copy()
        while True:
            q = a_mat @ p
            pq = p @ q
            if not np.isfinite(pq) or pq <= 0.0:
                raise SolverError("non-positive curvature encountered: matrix is "
                                  "indefinite or singular")
            alpha = rho / pq
            x += alpha * p
            r -= alpha * q
            norm_r = np.linalg.norm(r)
            if not np.isfinite(norm_r):
                raise SolverError("non-finite residual encountered")
            if norm_r > _DIVERGENCE_FACTOR * norm_b:
                raise SolverError("residual diverged: matrix is indefinite or "
                                  "singular (missing Dirichlet constraints?)")
            z = inv_diag * r
            rho_next = r @ z
            if norm_r <= config.tol * norm_b and math.sqrt(max(rho_next, 0.0)) <= config.tol * norm_bp:
                break
            yield x, norm_r, False
            beta = rho_next / rho
            rho = rho_next
            p = z + beta * p
        # confirm with the true residual (recursion may have drifted)
        r = b - a_mat @ x
        yield x, np.linalg.norm(r), True


def _minres(split: LambdaSplit, config: SolverConfig, start: np.ndarray | None = None):
    """Preconditioned MINRES on the mixed system of a lambda split,

        [A0, D^T W; W D, -W/lambda] [u; p] = [load_u; load_p],

    whose u is the solution of the penalty system (p = lambda * div u), with
    the preconditioner blockdiag(diag(A0), (1/lambda + 1/mu) W) (identity
    blocks with `preconditioner="none"`), after Elman, Silvester & Wathen,
    Finite Elements and Fast Iterative Solvers (2nd ed., 2014), ch. 4.
    Starts from `start` where its residual is below that of x = 0, and from
    zero otherwise.  Yields `_iterate` steps of [u; p], with the
    preconditioned residual norms |r|_{M^-1}; a step's estimate meets `tol`
    once |r|_{M^-1} <= tol * |b|_{M^-1}, relative to the load whatever the
    start.
    """
    mixed, w = split.mixed, split.volume
    n, m = split.divergence.shape[1], len(w)
    if config.preconditioner == "diagonal":
        diag = mixed.diagonal()[:n]
        if np.any(diag <= 0.0):
            raise SolverError("non-positive diagonal entry of A0: matrix is not "
                              "SPD (missing Dirichlet constraints?)")
        inv_m = np.concatenate([1.0 / diag, 1.0 / ((1.0 / split.lam + 1.0 / split.mu) * w)])
    else:
        inv_m = np.ones(n + m)
    w_lam = w / split.lam
    rhs = np.concatenate([split.load_u, split.load_p])
    work = np.empty(m)

    def apply(vec):
        """The mixed matrix times `vec`: the product with `mixed` (the one vector
        a step allocates) less W/lambda times the pressure part."""
        out = mixed @ vec
        np.multiply(w_lam, vec[n:], out=work)
        out[n:] -= work
        return out

    x = np.zeros(n + m)
    v = rhs.copy()
    z = inv_m * v
    norm_b = gamma = math.sqrt(v @ z)
    if start is not None:
        v_start = rhs - apply(start)
        z_start = inv_m * v_start
        gamma_start = math.sqrt(v_start @ z_start)
        if gamma_start < norm_b:  # False for a non-finite start
            x, v, z, gamma = np.array(start, dtype=float), v_start, z_start, gamma_start
    yield x, norm_b, gamma
    v_old, z_new, dirs, dirs_old = (np.empty(n + m) for _ in range(4))
    while True:
        # (re)start from x with v = b - K x, z = M^-1 v and gamma = |v|_{M^-1}
        gamma_old, eta = 1.0, gamma
        c, c_old, s, s_old = 1.0, 1.0, 0.0, 0.0
        v_old.fill(0.0)
        dirs.fill(0.0)
        dirs_old.fill(0.0)
        while True:
            # Lanczos step: v <- K z - (delta/gamma) v - (gamma/gamma_old) v_old
            scal(1.0 / gamma, z)
            product = apply(z)
            delta = product @ z
            axpy(v, product, a=-delta / gamma)
            axpy(v_old, product, a=-gamma / gamma_old)
            v_old, v = v, product
            np.multiply(inv_m, v, out=z_new)
            gamma_sq = z_new @ v
            if not (math.isfinite(delta) and math.isfinite(gamma_sq) and gamma_sq >= 0.0):
                raise SolverError("MINRES breakdown: the preconditioner is not "
                                  "positive definite or a value is not finite")
            gamma_new = math.sqrt(gamma_sq)
            # Givens rotation of the tridiagonal's new column
            alpha0 = c * delta - c_old * s * gamma
            alpha1 = math.hypot(alpha0, gamma_new)
            if alpha1 == 0.0:
                raise SolverError("MINRES breakdown: singular Lanczos matrix")
            alpha2 = s * delta + c_old * c * gamma
            alpha3 = s_old * gamma
            c_old, c = c, alpha0 / alpha1
            s_old, s = s, gamma_new / alpha1
            # dirs_old <- (z - alpha3 dirs_old - alpha2 dirs) / alpha1
            scal(-alpha3, dirs_old)
            axpy(dirs, dirs_old, a=-alpha2)
            axpy(z, dirs_old)
            scal(1.0 / alpha1, dirs_old)
            dirs, dirs_old = dirs_old, dirs
            axpy(dirs, x, a=c * eta)
            eta *= -s
            gamma_old, gamma = gamma, gamma_new
            z, z_new = z_new, z
            if not abs(eta) > config.tol * norm_b:
                break
            yield x, abs(eta), False
        # confirm with the true residual (the recurrence may have drifted)
        v = rhs - apply(x)
        z = inv_m * v
        gamma = math.sqrt(v @ z)
        yield x, gamma, True
