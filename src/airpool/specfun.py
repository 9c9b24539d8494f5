"""Special functions used by the closed-form error bounds, the margin
accuracy bound and the configuration optimizer.

Each function returns a plain value. The iterative routines are capped at
``ITERATION_CAP`` steps; an evaluation that has not converged by then
raises ArithmeticError naming the function, rather than returning a
truncated value. `regularized_gamma_p` also takes an array, iterating only
over the entries that have not converged yet.
"""

import math

import numpy as np

ITERATION_CAP = 500


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0: `math.lgamma`, and inf
    at +inf and above about 2.55e305, where `math.lgamma` overflows."""
    if not x > 0.0:  # NaN too
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _unconverged(name: str, detail: str) -> ArithmeticError:
    return ArithmeticError(f"{name}: no convergence within ITERATION_CAP = "
                           f"{ITERATION_CAP} steps ({detail})")


def _gamma_p_series(k: float, x: np.ndarray) -> np.ndarray:
    # Power series for P(k, x) without its prefactor, effective when
    # x < k + 1. Each step runs on the entries that have not converged yet.
    out = np.empty_like(x)
    index = np.arange(len(x))
    ap = k
    total = np.full(len(x), 1.0 / k)
    term = total.copy()
    for _ in range(ITERATION_CAP):
        ap += 1.0
        term *= x / ap
        total += term
        done = np.abs(term) < np.abs(total) * 1e-16
        out[index[done]] = total[done]
        keep = ~done
        index, x, term, total = index[keep], x[keep], term[keep], total[keep]
        if not index.size:
            return out
    raise _unconverged("regularized_gamma_p", f"k={k}; unconverged entries: {index.size}")


def _gamma_q_contfrac(k: float, x: np.ndarray) -> np.ndarray:
    # Modified Lentz continued fraction for Q(k, x) = 1 - P(k, x) without
    # its prefactor, x >= k + 1; again only over the unconverged entries.
    tiny = 1e-300
    out = np.empty_like(x)
    index = np.arange(len(x))
    b = x + 1.0 - k
    c = np.full(len(x), 1.0 / tiny)
    d = 1.0 / b
    h = d
    for n in range(1, ITERATION_CAP + 1):
        an = -n * (n - k)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        out[index[done]] = h[done]
        keep = ~done
        index, b, c, d, h = index[keep], b[keep], c[keep], d[keep], h[keep]
        if not index.size:
            return out
    raise _unconverged("regularized_gamma_p", f"k={k}; unconverged entries: {index.size}")


def regularized_gamma_p(k: float, x):
    """P(k, x), the regularized lower incomplete gamma function, clipped
    into [0, 1].

    `x` is a float or an array of them; a float gives a float. Series
    expansion for x < k + 1, continued fraction otherwise (Press et al.,
    Numerical Recipes, 3rd ed., section 6.2).
    """
    if not (k > 0.0):
        raise ValueError(f"regularized_gamma_p requires k > 0, got k={k}")
    xs = np.array(x, dtype=float, ndmin=1)
    bad = ~(xs >= 0.0)
    if bad.any():
        raise ValueError(f"regularized_gamma_p requires x >= 0, got x={xs[bad][0]}")
    flat = xs.reshape(-1)
    p = np.ones_like(flat)  # P(k, inf) = 1
    ln_gamma_k = ln_gamma(k)

    def prefactor(v):
        return np.exp(-v + k * np.log(v) - ln_gamma_k)

    series = np.flatnonzero((flat > 0.0) & (flat < k + 1.0))
    contfrac = np.flatnonzero((flat >= k + 1.0) & (flat < math.inf))
    p[flat == 0.0] = 0.0
    v = flat[series]
    p[series] = _gamma_p_series(k, v) * prefactor(v)
    v = flat[contfrac]
    p[contfrac] = 1.0 - _gamma_q_contfrac(k, v) * prefactor(v)
    p = np.minimum(1.0, np.maximum(0.0, p)).reshape(xs.shape)
    return float(p[0]) if np.ndim(x) == 0 else p


_NEG_INV_E = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch W0 of the Lambert W function (w e^w = x, w >= -1).

    Halley iteration from a log-based initial guess, for at most
    `ITERATION_CAP` steps, with no fallback: a non-finite step carries NaN
    to the error. Residual target is |w e^w - x| <= 1e-12 * max(1, |x|).
    """
    if math.isnan(x) or x < _NEG_INV_E:
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
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
    for _ in range(ITERATION_CAP):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1) if wp1 != 0.0 else ew
        step = f / denom
        w_new = w - step
        if w_new < -1.0:
            w_new = -1.0 + 0.5 * (w + 1.0)
        w = w_new
    raise _unconverged("lambert_w0", f"x={x}")
