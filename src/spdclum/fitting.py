"""Multi-exponential decay fitting on time traces.

Damped least squares (projected Levenberg-Marquardt) with an analytic
Jacobian and Poisson weights w = 1/max(counts, 1).  Every start on a
deterministic grid of log-spaced lifetimes gets its amplitudes and baseline
seeded by nonnegative linear least squares, all from one kernel column per
lifetime and one Gram matrix; the starts are ranked by that seed's
objective, also taken from the Gram matrix, and only the best one is
refined.  Both solvers are NumPy code in this module, and the refinement
works on p x p matrices (p parameters): J^T J and J^T r once per Jacobian,
one small solve per trial step.  The model and its Jacobian share one
kernel evaluation per parameter point.  Uncertainties come from the
quadratic approximation at the optimum, scaled by the reduced chi-square:
the pseudo-inverse of J^T J and its null space, from one SVD.

The model per time bin is the bin average of

    m(t) = baseline + sum_i a_i * K(t - t0; tau_i, sigma_irf)

with K the causal exponential, convolved with the Gaussian IRF when an IRF
width is given.  Averaging over each bin through the closed-form
antiderivative mirrors how counts are accumulated, so lifetimes recovered
from finely or coarsely binned traces are free of binning bias.  t0 is
fitted only when an IRF is present (sub-bin IRF traces fix it), matching how
nanosecond and microsecond windows are analyzed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import kernels

_BOUND_REL = 1e-3        # lifetime this close to its bound flags the fit
_DEGENERATE_RATIO = 1.5  # adjacent lifetimes closer than this are degenerate

# least_squares stopping tolerances on the relative cost decrease, the scaled
# step and the scaled gradient
FTOL = XTOL = GTOL = 1e-8


@dataclass(frozen=True)
class FitComponent:
    """One decay component with relative 1-sigma uncertainties."""

    amplitude: float
    lifetime_ns: float
    amplitude_rel_sigma: float
    lifetime_rel_sigma: float


@dataclass(frozen=True, eq=False)
class DecayFit:
    """Result of fit_multiexp; components are sorted by lifetime.

    n_starts counts the lifetime starts ranked by their NNLS seed; one of
    them, the best seeded, is refined.  A trace with no positive bin is
    flagged "no-counts".  When the fit is flagged "ill-conditioned", a
    parameter the data do not determine reports an infinite sigma.
    """

    components: tuple[FitComponent, ...]
    baseline: float
    baseline_rel_sigma: float
    t0_ns: float
    t0_sigma_ns: float
    irf_fwhm_ns: float | None
    reduced_chi_square: float
    converged: bool
    flags: tuple[str, ...]
    residual_trace: np.ndarray
    n_starts: int
    cost: float

    @property
    def lifetimes_ns(self) -> tuple[float, ...]:
        return tuple(c.lifetime_ns for c in self.components)

    @property
    def amplitudes(self) -> tuple[float, ...]:
        return tuple(c.amplitude for c in self.components)


class LeastSquaresResult(NamedTuple):
    """Outcome of least_squares.

    status is 1 (gradient), 2 (cost decrease), 3 (step size) or 4 (cost
    decrease and step size) when a tolerance stopped the solve, and 0 when
    the evaluation budget ran out or a residual, Jacobian or step was not
    finite; x is then the last accepted point.
    """

    x: np.ndarray
    cost: float
    status: int
    nfev: int


def nnls_supports(a, b, supports) -> np.ndarray:
    """min ||a[:, s] x - b|| subject to x >= 0 for each row s of the integer
    array supports (at most four columns each); one x per row.

    The optimum is the least-squares solution on a support with independent
    columns (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23):
    the best all-positive one over the subsets of s, which are solved in one
    batch from the Gram matrix of a with unit-norm columns.
    """
    norm = np.linalg.norm(a, axis=0)
    norm[norm == 0.0] = 1.0
    a = a / norm
    gram, proj, b_sq = a.T @ a, a.T @ b, float(b @ b)
    # each nonempty subset, larger first, with identity rows pinning the rest
    keep = np.array(list(itertools.product((True, False),
                                           repeat=supports.shape[1]))[:-1])
    sup = supports[:, None, :]
    block = np.where(keep[:, :, None] & keep[:, None, :],
                     gram[sup[..., :, None], sup[..., None, :]],
                     np.eye(keep.shape[1]))
    rhs = np.where(keep, proj[sup], 0.0)
    det = np.linalg.det(block)
    ok = (det != 0.0) & np.isfinite(det) & np.all(np.isfinite(rhs), -1)
    z = np.full(rhs.shape, np.nan)
    z[ok] = np.linalg.solve(block[ok], rhs[ok][..., None])[..., 0]
    feasible = np.all(((z > 0.0) | ~keep) & np.isfinite(z), -1)
    # b_sq - z.rhs is the squared residual of a least-squares solution
    rss = np.where(feasible, b_sq - np.sum(z * rhs, -1), np.inf)
    rows, j = np.arange(len(supports)), np.argmin(rss, axis=1)
    return np.where((rss[rows, j] < b_sq)[:, None],
                    z[rows, j] / norm[supports], 0.0)


def least_squares(fun, x0, jac, bounds, max_nfev: int) -> LeastSquaresResult:
    """Minimize 0.5 * ||fun(x)||^2 subject to bounds[0] <= x <= bounds[1].

    Projected Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11:431,
    1963).  Each step minimizes ||J s + r||^2 + lambda ||D s||^2 with
    Marquardt's column scaling D^2 = diag(J^T J) (kept at its running
    maximum), freezes a variable at a bound whose gradient points outward,
    and clips the trial point to the bounds.  J^T J and g = J^T r are formed
    once per Jacobian; every trial step, rejected ones included, solves the
    p x p system (J^T J + lambda D^2) s = -g on the free variables, in the
    scaled variables D s (as MINPACK's lmder works on p x p factors; Moré,
    LNM 630, 1978), and the predicted decrease is -(g.s + s.J^T J.s / 2).
    lambda follows the ratio of actual to predicted decrease.  The solve
    stops on the relative cost decrease (FTOL), the scaled step (XTOL), the
    scaled gradient (GTOL), or after max_nfev residual evaluations.
    """
    lo, hi = (np.asarray(v, dtype=float) for v in bounds)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = fun(x)
    nfev = 1
    cost = 0.5 * float(r @ r)
    if not np.isfinite(cost):
        return LeastSquaresResult(x, cost, 0, nfev)
    damping, growth = 1e-3, 2.0
    d_sq = np.zeros(x.size)
    j_mat = None
    while nfev < max_nfev:
        if j_mat is None:
            j_mat = jac(x)
            if not np.all(np.isfinite(j_mat)):
                break
            jtj, g = j_mat.T @ j_mat, j_mat.T @ r
            d_sq = np.maximum(d_sq, np.diag(jtj))
            d = np.where(d_sq > 0.0, np.sqrt(d_sq), 1.0)
            free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
            r_norm = np.sqrt(2.0 * cost)
            if np.all(np.abs(g[free]) <= GTOL * d[free] * r_norm):
                return LeastSquaresResult(x, cost, 1, nfev)
            # J^T J of the free variables in the scaled variables u = D s
            d_free = d[free]
            scaled = jtj[np.ix_(free, free)] / np.outer(d_free, d_free)
        # (J^T J + lambda D^2) s = -g on the free variables
        try:
            u = np.linalg.solve(scaled + damping * np.eye(d_free.size),
                                -g[free] / d_free)
        except np.linalg.LinAlgError:
            break
        step = np.zeros(x.size)
        step[free] = u / d_free
        trial = np.clip(x + step, lo, hi)
        step = trial - x
        if not np.all(np.isfinite(step)):
            break
        r_trial = fun(trial)
        nfev += 1
        cost_trial = 0.5 * float(r_trial @ r_trial)
        if not np.isfinite(cost_trial):
            break
        predicted = -(g @ step + 0.5 * (step @ jtj @ step))
        actual = cost - cost_trial
        ratio = actual / predicted if predicted > 0.0 else -np.inf
        ftol_met = actual < FTOL * cost and ratio > 0.25
        xtol_met = (np.linalg.norm(d * step)
                    <= XTOL * (XTOL + np.linalg.norm(d * x)))
        if ratio > 1e-4:
            x, r, cost = trial, r_trial, cost_trial
            j_mat = None
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            growth = 2.0
        else:
            damping *= growth
            growth *= 2.0
        if ftol_met or xtol_met:
            status = (4 if xtol_met else 2) if ftol_met else 3
            return LeastSquaresResult(x, cost, status, nfev)
    return LeastSquaresResult(x, cost, 0, nfev)


class DecayDesign:
    """Residuals and analytic derivatives for one fitting problem.

    Parameter vector layout: [baseline?, t0?, a_1..a_n, tau_1..tau_n, fwhm?],
    with the optional entries present according to the switches.  The
    objective is 0.5 * sum(residuals**2) with residuals = (model - y) * w.
    """

    def __init__(self, t, y, n_components: int, irf_fwhm_ns: float | None = None,
                 baseline_mode: str = "free", t0_ns: float = 0.0,
                 fit_t0: bool | None = None, fit_irf: bool = False):
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.y.shape:
            raise ValueError("time and counts must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.y))):
            raise ValueError("time and counts must be finite")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("time axis must be strictly increasing")
        if not 1 <= n_components <= 3:
            raise ValueError("n_components must be 1, 2, or 3")
        if baseline_mode not in ("free", "zero"):
            raise ValueError("baseline_mode must be 'free' or 'zero'")
        if irf_fwhm_ns is not None and irf_fwhm_ns < 0:
            raise ValueError("IRF FWHM must be nonnegative")
        if fit_t0 is None:
            fit_t0 = irf_fwhm_ns is not None
        if fit_t0 and not irf_fwhm_ns:
            raise ValueError("t0 can only be fitted with a nonzero IRF width")
        if fit_irf and not irf_fwhm_ns:
            raise ValueError("fitting the IRF width needs a nonzero start value")
        self.n = n_components
        self.irf_fwhm_ns = irf_fwhm_ns
        self.baseline_mode = baseline_mode
        self.fit_t0 = bool(fit_t0)
        self.fit_irf = bool(fit_irf)
        self.t0_fixed = float(t0_ns)
        self.w = 1.0 / np.sqrt(np.maximum(self.y, 1.0))
        self.n_params = ((baseline_mode == "free") + self.fit_t0
                         + 2 * self.n + self.fit_irf)
        if self.t.size < max(3 * self.n_params, 8):
            raise ValueError(
                f"trace too short: {self.t.size} bins for {self.n_params} "
                "parameters")
        self.dt = kernels.median_step(self.t)  # median bin width
        span = float(self.t[-1] - self.t[0])
        self.tau_lo = 0.05 * self.dt
        self.tau_hi = 50.0 * span
        self.edges = kernels.edges_from_centers(self.t)
        self.widths = np.diff(self.edges)
        self._memo = (None, None)  # (key, kernel parts) of the last point

    # -- parameter vector bookkeeping ------------------------------------
    def _split(self, theta):
        theta = np.asarray(theta, dtype=float)
        i = 0
        baseline = 0.0
        if self.baseline_mode == "free":
            baseline = theta[0]
            i = 1
        t0 = self.t0_fixed
        if self.fit_t0:
            t0 = theta[i]
            i += 1
        amps = theta[i:i + self.n]
        taus = theta[i + self.n:i + 2 * self.n]
        fwhm = self.irf_fwhm_ns
        if self.fit_irf:
            fwhm = theta[i + 2 * self.n]
        return baseline, t0, amps, taus, fwhm

    def _avg(self, v):
        # bin average of a kernel antiderivative difference; matches how
        # synthetic traces integrate the model over bins, so recovered
        # parameters carry no binning bias
        return (v[..., 1:] - v[..., :-1]) / self.widths

    def _kernel(self, t0, taus, fwhm):
        """exp_conv_gauss_cdf_grad at the edges, kept for the last exact
        (t0, taus, sigma): residuals and jacobian at one point share it."""
        sigma = (fwhm or 0.0) * kernels.FWHM_TO_SIGMA
        key = np.concatenate(([t0, sigma], taus)).tobytes()
        if self._memo[0] != key:
            self._memo = key, kernels.exp_conv_gauss_cdf_grad(
                self.edges - t0, taus, sigma)
        return self._memo[1]

    def model(self, theta):
        baseline, t0, amps, taus, fwhm = self._split(theta)
        out = np.full_like(self.t, baseline)
        for a, f in zip(amps, self._kernel(t0, taus, fwhm)[0]):
            out = out + a * self._avg(f)
        return out

    def residuals(self, theta):
        return (self.model(theta) - self.y) * self.w

    def jacobian(self, theta):
        baseline, t0, amps, taus, fwhm = self._split(theta)
        # F and its partials in t, tau and sigma, a row per component;
        # d/dt0 of F(t - t0) is -dF/dt
        f, d_t, d_tau, d_sigma = self._kernel(t0, taus, fwhm)
        cols = []
        if self.baseline_mode == "free":
            cols.append(np.ones_like(self.t))
        if self.fit_t0:
            dt_col = np.zeros_like(self.t)
            for a, d in zip(amps, d_t):
                dt_col -= a * self._avg(d)
            cols.append(dt_col)
        cols.extend(self._avg(v) for v in f)
        cols.extend(a * self._avg(d) for a, d in zip(amps, d_tau))
        if self.fit_irf:
            dw_col = np.zeros_like(self.t)
            for a, d in zip(amps, d_sigma):
                dw_col += a * self._avg(d)
            cols.append(dw_col * kernels.FWHM_TO_SIGMA)
        return np.column_stack(cols) * self.w[:, None]

    def objective(self, theta) -> float:
        r = self.residuals(theta)
        return 0.5 * float(r @ r)

    def gradient(self, theta) -> np.ndarray:
        """Analytic gradient of the objective; matches finite differences."""
        return self.jacobian(theta).T @ self.residuals(theta)

    # -- bounds and starts ------------------------------------------------
    def bounds(self):
        span = self.t[-1] - self.t[0]
        lo, hi = [], []
        if self.baseline_mode == "free":
            lo.append(0.0)
            hi.append(np.inf)
        if self.fit_t0:
            lo.append(self.t0_fixed - 0.5 * span)
            hi.append(self.t0_fixed + 0.5 * span)
        lo.extend([0.0] * self.n)
        hi.extend([np.inf] * self.n)
        lo.extend([self.tau_lo] * self.n)
        hi.extend([self.tau_hi] * self.n)
        if self.fit_irf:
            lo.append(self.dt / 100.0)
            hi.append(span)
        return np.array(lo), np.array(hi)

    def start_lifetimes(self) -> list[tuple[float, ...]]:
        """Deterministic log-spaced lifetime combinations over the span."""
        span = self.t[-1] - self.t[0]
        grid_sizes = {1: 10, 2: 7, 3: 6}
        g = np.geomspace(max(2.0 * self.dt, 1e-9), 0.7 * span,
                        grid_sizes[self.n])
        return [tuple(c) for c in itertools.combinations(g, self.n)]

    def best_start(self, starts) -> np.ndarray:
        """The seeded parameters of the lifetime start whose seed fits best."""
        thetas, objectives = self._seeds(starts)
        return thetas[int(np.argmin(objectives))]

    def _seeds(self, starts):
        """Parameters of every lifetime start, seeded by nonnegative least
        squares, a row each, and its objective.

        One kernel call gives a column per distinct lifetime, from which
        nnls_supports seeds every start.  The objectives come from the
        weighted Gram matrix and projections of each start's columns, not
        from a residual vector per start.
        """
        taus, support = np.unique(np.asarray(starts, dtype=float),
                                  return_inverse=True)
        k = len(starts)
        support = support.reshape(k, self.n)
        cols = self._avg(kernels.exp_conv_gauss_cdf(
            self.edges - self.t0_fixed, taus,
            (self.irf_fwhm_ns or 0.0) * kernels.FWHM_TO_SIGMA))
        free = int(self.baseline_mode == "free")  # baseline column last
        a_mat = np.vstack([cols, np.ones((free, self.t.size))]).T
        support = np.hstack([support, np.full((k, free), taus.size)])
        a_w, b_w = a_mat * self.w[:, None], self.y * self.w
        coef = nnls_supports(a_w, b_w, support)
        floor = max(self.y.max(initial=0.0), 1.0) * 1e-6
        amps, base = (np.maximum(coef[:, :self.n], floor),
                      np.maximum(coef[:, self.n:], 0.0))
        # 0.5 * ||A c - b||^2 = 0.5 * (c.G.c - 2 c.p + b.b) on each support
        c = np.hstack([amps, base])
        gram, proj = a_w.T @ a_w, a_w.T @ b_w
        quad = np.einsum("si,sij,sj->s", c,
                         gram[support[:, :, None], support[:, None, :]], c)
        objectives = 0.5 * (quad - 2.0 * np.sum(c * proj[support], axis=1)
                            + b_w @ b_w)
        thetas = np.hstack([
            base, np.full((k, int(self.fit_t0)), self.t0_fixed), amps,
            taus[support[:, :self.n]],
            np.full((k, int(self.fit_irf)), self.irf_fwhm_ns or 0.0)])
        return thetas, objectives


def fit_multiexp(time_ns, counts, n_components: int,
                 irf_fwhm_ns: float | None = None, baseline_mode: str = "free",
                 *, t0_ns: float = 0.0, fit_t0: bool | None = None,
                 fit_irf: bool = False) -> DecayFit:
    """Fit a multi-exponential decay to a time trace.

    Parameters
    ----------
    time_ns, counts : array_like
        Trace bin centers and contents.  Counts may be float (expected
        traces) or integer (measured); weights are 1/max(counts, 1).
    n_components : int
        Number of exponentials, 1 to 3.
    irf_fwhm_ns : float or None
        Known IRF width to convolve into the model; None fits bare
        exponentials (appropriate when the IRF is far below the bin width).
    baseline_mode : str
        "free" floats a constant background, "zero" pins it.

    Returns
    -------
    DecayFit
        Lifetime-sorted components with relative uncertainties, reduced
        chi-square, residual trace, and diagnostic flags.  Non-convergence is
        reported through converged=False, never raised.
    """
    design = DecayDesign(time_ns, counts, n_components, irf_fwhm_ns,
                         baseline_mode, t0_ns, fit_t0, fit_irf)
    lo, hi = design.bounds()
    # counts near the float limit overflow the objective; that ends the
    # solve unconverged (status 0) and leaves the uncertainties non-finite,
    # so NumPy's overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        # on well-posed traces every start of the lifetime grid refines to
        # the same optimum, so rank the NNLS-seeded starts and refine only
        # the best
        starts = design.start_lifetimes()
        theta0 = np.clip(design.best_start(starts), lo, hi)
        res = least_squares(design.residuals, theta0, design.jacobian,
                            (lo, hi), max_nfev=300 * design.n_params)
        return _package_fit(design, res, len(starts),
                            converged_ok=res.status > 0)


def _package_fit(design: DecayDesign, res, n_starts: int,
                 converged_ok: bool) -> DecayFit:
    baseline, t0, amps, taus, fwhm = design._split(res.x)
    order = np.argsort(taus)
    flags: list[str] = []
    if not converged_ok:
        flags.append("not-converged")
    if not np.any(design.y > 0.0):
        flags.append("no-counts")

    jac = design.jacobian(res.x)
    jtj = jac.T @ jac
    dof = max(design.t.size - design.n_params, 1)
    chi2_red = 2.0 * res.cost / dof
    if np.isfinite(chi2_red) and np.all(np.isfinite(jtj)):
        u, sing, vt = np.linalg.svd(jtj)
        # the diagonal of pinv(jtj) (NumPy's default cutoff) from the same
        # factors: zero variance along the null space
        inv = np.divide(1.0, sing, out=np.zeros_like(sing),
                        where=sing > sing[0] * 1e-15)
        cov_diag = np.einsum("ki,k,ik->i", vt, inv, u) * chi2_red
        sigmas = np.sqrt(np.clip(cov_diag, 0.0, None))
        null = sing <= sing[0] * 1e-14
        if np.any(null):
            flags.append("ill-conditioned")
            # a parameter with more than rounding weight on a null singular
            # vector is not determined
            sigmas[np.any(np.abs(vt[null]) > 1e-8, axis=0)] = np.inf
    else:
        sigmas = np.full(design.n_params, np.nan)

    i = 0
    baseline_rel = 0.0
    if design.baseline_mode == "free":
        baseline_rel = _rel(sigmas[0], baseline)
        i = 1
    t0_sigma = 0.0
    if design.fit_t0:
        t0_sigma = float(sigmas[i])
        i += 1
    amp_sig = sigmas[i:i + design.n]
    # the curvature says nothing one-sided: a lifetime on its bound is not
    # determined, like a baseline on its zero bound
    at_bound = ((taus >= design.tau_hi * (1.0 - _BOUND_REL))
                | (taus <= design.tau_lo * (1.0 + _BOUND_REL)))
    tau_sig = np.where(at_bound, np.inf, sigmas[i + design.n:i + 2 * design.n])

    components = tuple(
        FitComponent(float(amps[k]), float(taus[k]),
                     _rel(amp_sig[k], amps[k]), _rel(tau_sig[k], taus[k]))
        for k in order)
    taus_sorted = [c.lifetime_ns for c in components]
    if any(b < _DEGENERATE_RATIO * a for a, b in zip(taus_sorted, taus_sorted[1:])):
        flags.append("ill-conditioned")
    if np.any(at_bound):
        flags.append("at-bound")

    residual = design.y - design.model(res.x)
    # dedupe flags, preserving order
    flags = list(dict.fromkeys(flags))
    return DecayFit(
        components=components,
        baseline=float(baseline),
        baseline_rel_sigma=baseline_rel,
        t0_ns=float(t0),
        t0_sigma_ns=t0_sigma,
        irf_fwhm_ns=float(fwhm) if fwhm is not None else None,
        reduced_chi_square=float(chi2_red),
        converged=converged_ok,
        flags=tuple(flags),
        residual_trace=residual,
        n_starts=n_starts,
        cost=float(res.cost),
    )


def _rel(sigma: float, value: float) -> float:
    # denormal values overflow the quotient; report those as inf too
    with np.errstate(over="ignore"):
        out = np.divide(sigma, abs(value)) if value != 0.0 else np.inf
    return float(out)


@dataclass(frozen=True)
class ComponentAgreement:
    """Cross-condition agreement of one lifetime component."""

    index: int
    values: tuple[float, ...]
    sigmas_ns: tuple[float, ...]
    agree: bool


@dataclass(frozen=True)
class IndependenceReport:
    """Do fitted lifetimes agree across conditions within 1-sigma bands?"""

    keys: tuple[float, ...]
    components: tuple[ComponentAgreement, ...]
    all_agree: bool


def decay_independence_report(fits: Mapping[float, DecayFit]) -> IndependenceReport:
    """Check that lifetimes are condition-independent.

    For every component index, the +-1 sigma intervals of all fits must share
    a common value.  Typical use: fits keyed by pump wavelength, verifying the
    luminescence decay does not depend on the pump.
    """
    if len(fits) < 2:
        raise ValueError("need at least two fits to compare")
    keys = tuple(sorted(fits))
    n_set = {len(fits[k].components) for k in keys}
    if len(n_set) != 1:
        raise ValueError("fits have mismatched component counts")
    n = n_set.pop()
    components = []
    for idx in range(n):
        values, sigmas = [], []
        for k in keys:
            comp = fits[k].components[idx]
            values.append(comp.lifetime_ns)
            sigmas.append(comp.lifetime_rel_sigma * abs(comp.lifetime_ns))
        lo = max(v - s for v, s in zip(values, sigmas))
        hi = min(v + s for v, s in zip(values, sigmas))
        components.append(ComponentAgreement(idx, tuple(values),
                                             tuple(sigmas), lo <= hi))
    return IndependenceReport(keys, tuple(components),
                              all(c.agree for c in components))
