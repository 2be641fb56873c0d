"""Transaction-cost model: the transaction remainder factor μ_t.

Rebalancing from the drifted portfolio ``w'_t`` to the new target
``w_t`` costs commission on every trade, shrinking the portfolio value
by the *transaction remainder factor* μ_t ∈ (0, 1].  Jiang et al. (2017)
— the framework the paper adopts (its eq. (1) uses the same μ_t) — show
μ_t solves the fixed-point equation

.. math::

    \\mu_t = \\frac{1}{1 - c_p w_{t,0}} \\Big[ 1 - c_p w'_{t,0}
            - (c_s + c_p - c_s c_p) \\sum_i (w'_{t,i} - \\mu_t w_{t,i})^+ \\Big]

where ``c_p``/``c_s`` are purchase/sale commission rates and index 0 is
cash.  Two implementations are provided:

* :func:`transaction_remainder_exact` — the fixed-point iteration, used
  in back-tests;
* :func:`transaction_remainder_approx` — the differentiable first-order
  approximation ``μ_t ≈ 1 − c Σ_i |w'_{t,i} − w_{t,i}|`` used inside the
  training loss (also following Jiang et al.).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..autograd import Tensor, ensure_tensor

# Poloniex's commission rate at the time of the paper's data: 0.25%.
DEFAULT_COMMISSION = 0.0025
_MAX_ITERATIONS = 64
_TOLERANCE = 1e-12


def _check_weights(w: np.ndarray, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {w.shape}")
    if w.min() < -1e-9:
        raise ValueError(f"{name} has negative entries")
    if abs(w.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1, sums to {w.sum():.8f}")
    return np.maximum(w, 0.0)


def drifted_weights(w_prev: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Portfolio weights after prices move: w' = (y ⊙ w) / (y · w).

    ``w_prev`` are the weights chosen at the previous step (cash first),
    ``y`` the price relatives (cash component 1).
    """
    w_prev = np.asarray(w_prev, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    growth = y * w_prev
    total = growth.sum()
    if total <= 0:
        raise ValueError("portfolio value collapsed to zero")
    return growth / total


def transaction_remainder_exact(
    w_drifted: np.ndarray,
    w_target: np.ndarray,
    commission_purchase: float = DEFAULT_COMMISSION,
    commission_sale: float = DEFAULT_COMMISSION,
) -> float:
    """Solve the μ_t fixed point (Jiang et al. 2017, eq. (14)).

    Index 0 of both weight vectors is the cash asset.  Converges
    monotonically from the initial guess
    ``μ⁰ = c Σ|w' − w|`` shrinkage; iteration stops at
    ``|μ_{k+1} − μ_k| < 1e-12`` or 64 iterations.
    """
    w_prime = _check_weights(w_drifted, "w_drifted")
    w = _check_weights(w_target, "w_target")
    if w_prime.shape != w.shape:
        raise ValueError("weight vectors must have identical shapes")
    cp, cs = commission_purchase, commission_sale
    if not (0.0 <= cp < 1.0 and 0.0 <= cs < 1.0):
        raise ValueError("commission rates must be in [0, 1)")
    if cp == 0.0 and cs == 0.0:
        return 1.0

    # The fixed point iterates over a handful of scalars; plain Python
    # floats run it an order of magnitude faster than numpy ufuncs on
    # length-N arrays (this sits on the back-test/serving hot path).
    wp = w_prime.tolist()
    wt = w.tolist()
    wp0, wt0 = wp[0], wt[0]
    wp_assets, wt_assets = wp[1:], wt[1:]
    combined = cs + cp - cs * cp
    sell = 0.0
    for a, b in zip(wp_assets, wt_assets):
        d = a - b
        if d > 0.0:
            sell += d
    mu = 1.0 - cp * wt0 - combined * sell
    mu = min(max(mu, 0.0), 1.0)
    denom = 1.0 - cp * wt0
    for _ in range(_MAX_ITERATIONS):
        sell = 0.0
        for a, b in zip(wp_assets, wt_assets):
            d = a - mu * b
            if d > 0.0:
                sell += d
        mu_next = (1.0 - cp * wp0 - combined * sell) / denom
        mu_next = min(max(mu_next, 0.0), 1.0)
        if abs(mu_next - mu) < _TOLERANCE:
            return mu_next
        mu = mu_next
    return mu


def transaction_remainder_approx(
    w_drifted: Union[np.ndarray, Tensor],
    w_target: Union[np.ndarray, Tensor],
    commission: float = DEFAULT_COMMISSION,
) -> Tensor:
    """Differentiable μ_t ≈ 1 − c Σ_i |w'_i − w_i| (cash excluded).

    Accepts batches: inputs of shape ``(batch, n_assets+1)`` return a
    ``(batch,)`` tensor.  Used inside the training objective so gradients
    flow into the action.
    """
    w_prime = ensure_tensor(w_drifted)
    w = ensure_tensor(w_target)
    if w_prime.shape != w.shape:
        raise ValueError("weight vectors must have identical shapes")
    diff = (w_prime - w).abs()
    if diff.ndim == 1:
        turnover = diff[1:].sum()
    else:
        turnover = diff[:, 1:].sum(axis=1)
    mu = 1.0 - commission * turnover
    return mu.clip(1e-8, 1.0)


_MU_CLIP_LOW = 1e-8
_MU_CLIP_HIGH = 1.0


def fused_training_loss(
    actions: np.ndarray,
    w_drifted: np.ndarray,
    y_next: np.ndarray,
    commission: float = DEFAULT_COMMISSION,
) -> Tuple[float, float, np.ndarray]:
    """Forward + analytic backward of the trainer's objective (eq. (1)).

    Computes ``loss = −mean(log(μ_t · (w_t · y_{t+1})))`` with the
    differentiable μ_t of :func:`transaction_remainder_approx`, plus the
    gradient ``∂loss/∂actions`` — all in plain numpy, mirroring the
    closure-graph ops one for one so both the scalar diagnostics and the
    gradient are bit-identical to building the graph and calling
    ``backward()``.

    Returns ``(loss, reward, grad_actions)`` where ``reward`` is the
    mean per-period log return (the trainer's diagnostic).
    """
    a = np.asarray(actions, dtype=np.float64)
    w_prime = np.asarray(w_drifted, dtype=np.float64)
    y = np.asarray(y_next, dtype=np.float64)
    if a.ndim != 2 or a.shape != w_prime.shape or a.shape != y.shape:
        raise ValueError(
            f"expected matching (batch, n_assets+1) arrays, got "
            f"{a.shape}, {w_prime.shape}, {y.shape}"
        )
    batch = a.shape[0]

    # -- forward (same op order as the graph path) ---------------------
    diff_raw = w_prime - a
    diff = np.abs(diff_raw)
    turnover = diff[:, 1:].sum(axis=1)
    mu_raw = 1.0 - turnover * commission
    mu = np.clip(mu_raw, _MU_CLIP_LOW, _MU_CLIP_HIGH)
    growth = (a * y).sum(axis=1)
    portfolio = mu * growth
    log_return = np.log(portfolio)
    loss = float(-(log_return.sum() * (1.0 / batch)))
    reward = float(log_return.mean())

    # -- backward ------------------------------------------------------
    # d(−mean)/d(log_return) then the log: (−1/B) / (μ·growth).
    g_log = (-1.0 * (1.0 / batch)) / portfolio
    g_mu = g_log * growth
    g_growth = g_log * mu
    # Growth branch: growth = Σ_i a_i y_i.
    g_a_growth = np.broadcast_to(g_growth[:, None], a.shape) * y
    # μ branch: clip mask, the 1 − c·turnover chain, |w' − a|.
    clip_mask = (mu_raw >= _MU_CLIP_LOW) & (mu_raw <= _MU_CLIP_HIGH)
    g_turnover = -(g_mu * clip_mask) * commission
    g_diff = np.zeros_like(diff)
    g_diff[:, 1:] = np.broadcast_to(g_turnover[:, None], (batch, a.shape[1] - 1))
    g_a_mu = -(g_diff * np.sign(diff_raw))
    grad_actions = g_a_growth + g_a_mu
    return loss, reward, grad_actions
