"""Scalar special functions used by the closed-form error bounds and the
configuration optimizer.

Everything here is pure float arithmetic with explicit convergence
bookkeeping, so callers can tell a converged value from a truncated one.
The iterative routines are capped at ``ITERATION_CAP`` steps and report the
count they actually used.
"""

import math
from dataclasses import dataclass

ITERATION_CAP = 500

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
# Gives ln-gamma to ~1e-14 relative accuracy over the positive axis.
_LANCZOS_G = 4.7421875
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


@dataclass(frozen=True)
class SpecFunResult:
    """Value of a special-function evaluation plus convergence metadata."""

    value: float
    converged: bool
    iterations: int


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Lanczos approximation; accurate to well under 1e-12 relative error on
    [1e-3, 1e3].
    """
    if not (x > 0.0) or math.isnan(x):
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    if math.isinf(x):
        return math.inf
    s = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        s += c / (x + i - 1.0)
    t = x + _LANCZOS_G - 0.5
    return 0.5 * math.log(2.0 * math.pi) + (x - 0.5) * math.log(t) - t + math.log(s)


def _gamma_p_series(k: float, x: float) -> SpecFunResult:
    # Power series for P(k, x), effective when x < k + 1.
    if x == 0.0:
        return SpecFunResult(0.0, True, 0)
    ap = k
    total = 1.0 / k
    term = total
    for n in range(1, ITERATION_CAP + 1):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            value = total * math.exp(-x + k * math.log(x) - ln_gamma(k))
            return SpecFunResult(value, True, n)
    value = total * math.exp(-x + k * math.log(x) - ln_gamma(k))
    return SpecFunResult(value, False, ITERATION_CAP)


def _gamma_q_contfrac(k: float, x: float) -> SpecFunResult:
    # Modified Lentz continued fraction for Q(k, x) = 1 - P(k, x), x >= k + 1.
    tiny = 1e-300
    b = x + 1.0 - k
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for n in range(1, ITERATION_CAP + 1):
        an = -n * (n - k)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            value = h * math.exp(-x + k * math.log(x) - ln_gamma(k))
            return SpecFunResult(value, True, n)
    value = h * math.exp(-x + k * math.log(x) - ln_gamma(k))
    return SpecFunResult(value, False, ITERATION_CAP)


def regularized_gamma_p_result(k: float, x: float) -> SpecFunResult:
    """P(k, x), the regularized lower incomplete gamma function.

    Series expansion for x < k + 1, continued fraction otherwise.
    """
    if not (k > 0.0):
        raise ValueError(f"regularized_gamma_p requires k > 0, got k={k}")
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"regularized_gamma_p requires x >= 0, got x={x}")
    if math.isinf(x):
        return SpecFunResult(1.0, True, 0)
    if x < k + 1.0:
        return _gamma_p_series(k, x)
    q = _gamma_q_contfrac(k, x)
    return SpecFunResult(1.0 - q.value, q.converged, q.iterations)


def regularized_gamma_p(k: float, x: float) -> float:
    """P(k, x) as a plain float, clipped into [0, 1]."""
    return min(1.0, max(0.0, regularized_gamma_p_result(k, x).value))


_NEG_INV_E = -math.exp(-1.0)


def lambert_w0_result(x: float) -> SpecFunResult:
    """Principal branch W0 of the Lambert W function (w e^w = x, w >= -1).

    Halley iteration from a log-based initial guess; falls back to bisection
    if the iteration fails to contract. Residual target is
    |w e^w - x| <= 1e-12 * max(1, |x|).
    """
    if math.isnan(x) or x < _NEG_INV_E:
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return SpecFunResult(0.0, True, 0)
    tol = 1e-12 * max(1.0, abs(x))
    # Initial guess.
    if x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
    elif x > 0.0:
        w = x / math.e
    else:
        # Near the branch point w ~ -1 + sqrt(2(e x + 1)).
        w = -1.0 + math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
    iters = 0
    for _ in range(64):
        iters += 1
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return SpecFunResult(w, True, iters)
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1) if wp1 != 0.0 else ew
        step = f / denom
        w_new = w - step
        if w_new < -1.0:
            w_new = -1.0 + 0.5 * (w + 1.0)
        if not math.isfinite(w_new):
            break
        w = w_new
    # Bisection fallback: W0 is increasing, bracket then halve.
    lo, hi = -1.0, max(w, 1.0)
    while hi * math.exp(hi) < x:
        hi *= 2.0
        iters += 1
        if iters >= ITERATION_CAP:
            return SpecFunResult(hi, False, iters)
    while iters < ITERATION_CAP:
        iters += 1
        mid = 0.5 * (lo + hi)
        f = mid * math.exp(mid) - x
        if abs(f) <= tol:
            return SpecFunResult(mid, True, iters)
        if f < 0.0:
            lo = mid
        else:
            hi = mid
    return SpecFunResult(0.5 * (lo + hi), False, iters)


def lambert_w0(x: float) -> float:
    """W0(x) as a plain float."""
    return lambert_w0_result(x).value
