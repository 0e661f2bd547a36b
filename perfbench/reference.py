"""Reference computations the benchmark checks the program's outputs against.

Written apart from ``risopt`` and kept deliberately plain:

- ``field``: an image-method field sum up to reflection order 2,
- ``loaded_channel``: H_eff = H_u + G_l inv(diag(Z_L) - Z_ll) H_0 with a
  dense ``np.linalg.inv`` (the program solves with an LU factorisation),
- ``max_min_sinr``: bisection on a common SINR target, each step solving the
  minimum-power uplink problem with the standard fixed point
  q_k <- gamma / (h_k (sigma2 I + sum_{j != k} q_j h_j^H h_j)^-1 h_k^H)
  (Rashid-Farrokhi, Liu & Tassiulas, IEEE JSAC 1998).

Only numpy is used.  ``test_reference.py`` checks these against closed forms.
"""

import itertools
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
EPS = 1e-9  # meters; on-wall and leg-end tolerance
MAX_ORDER = 2


def _mirror(point, p1, p2):
    d = (p2 - p1) / np.linalg.norm(p2 - p1)
    rel = point - p1
    return p1 + 2.0 * np.dot(rel, d) * d - rel


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _crossing(a, b, p1, p2):
    """(t, u) with a + t (b - a) = p1 + u (p2 - p1); None when parallel."""
    r, s = b - a, p2 - p1
    denom = _cross(r, s)
    if denom == 0.0:
        return None
    q = p1 - a
    return _cross(q, s) / denom, _cross(q, r) / denom


def _blocked(a, b, walls, skip):
    t_eps = EPS / np.linalg.norm(b - a)
    for i, (p1, p2, _) in enumerate(walls):
        if i in skip:
            continue
        hit = _crossing(a, b, p1, p2)
        if hit and t_eps < hit[0] < 1.0 - t_eps and -EPS <= hit[1] <= 1.0 + EPS:
            return True
    return False


def image_path(src, dst, walls, seq):
    """(unfolded length, reflection product) of the path reflecting off the
    walls ``seq`` in order, or None when that path does not exist.

    ``walls`` is a list of (p1, p2, reflection coefficient).
    """
    images = [src]
    for i in seq:
        images.append(_mirror(images[-1], walls[i][0], walls[i][1]))
    points = []
    target = dst
    for j in reversed(range(len(seq))):
        p1, p2, _ = walls[seq[j]]
        hit = _crossing(images[j + 1], target, p1, p2)
        if hit is None or not (EPS < hit[0] < 1.0 - EPS and -EPS <= hit[1] <= 1.0 + EPS):
            return None
        target = images[j + 1] + hit[0] * (target - images[j + 1])
        points.insert(0, target)
    stations = [src] + points + [dst]
    for leg in range(len(stations) - 1):
        skip = set(seq[max(leg - 1, 0):leg + 1])  # the walls this leg ends on
        a, b = stations[leg], stations[leg + 1]
        if np.linalg.norm(b - a) <= EPS or _blocked(a, b, walls, skip):
            return None
    product = complex(np.prod([walls[i][2] for i in seq])) if seq else 1.0 + 0.0j
    return float(np.linalg.norm(dst - images[-1])), product


def field(src, dst, walls, frequency, max_order=MAX_ORDER):
    """Coherent sum of product * exp(-jkd) / d over every specular path."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    k = 2.0 * math.pi * frequency / SPEED_OF_LIGHT
    total = 0.0 + 0.0j
    for order in range(max_order + 1):
        for seq in itertools.product(range(len(walls)), repeat=order):
            if any(seq[i] == seq[i + 1] for i in range(order - 1)):
                continue
            path = image_path(src, dst, walls, seq)
            if path is not None:
                length, product = path
                total += product * np.exp(-1j * k * length) / length
    return total


def field_matrix(sources, destinations, walls, frequency, max_order=MAX_ORDER):
    """F[d, s] = field(sources[s], destinations[d])."""
    return np.array(
        [
            [field(s, d, walls, frequency, max_order) for s in sources]
            for d in destinations
        ],
        dtype=complex,
    )


def load_impedances(capacitances, frequency, r_series, l_series):
    """Series R-L-C loads R + jwL + 1/(jwC)."""
    omega = 2.0 * math.pi * frequency
    caps = np.asarray(capacitances, dtype=float)
    return r_series + 1j * omega * l_series + 1.0 / (1j * omega * caps)


def loaded_channel(h_u, h_0, g_l, z_ll, z_loads):
    """H_eff = H_u + G_l inv(diag(Z_L) - Z_ll) H_0 with a dense inverse."""
    return h_u + g_l @ np.linalg.inv(np.diag(z_loads) - z_ll) @ h_0


def downlink_sinr(h, w, sigma2):
    """SINR_k = |h_k w_k|^2 / (sum_{j != k} |h_k w_j|^2 + sigma2)."""
    power = np.abs(h @ w) ** 2
    desired = np.diag(power)
    return desired / (power.sum(axis=1) - desired + sigma2)


def _inverse_form(h, others, sigma2):
    """h (sigma2 I + C^H C)^-1 h^H, where the rows of C are sqrt(q_j) h_j.

    Written through the Woodbury identity,
    (h h^H - (C h^H)^H (sigma2 I + C C^H)^-1 (C h^H)) / sigma2, because
    forming sigma2 I + C^H C directly rounds the noise floor away at high SNR.
    """
    c_h = others @ h.conj()
    small = sigma2 * np.eye(others.shape[0]) + others @ others.conj().T
    inner = np.real(c_h.conj() @ np.linalg.inv(small) @ c_h)
    return (np.real(h @ h.conj()) - inner) / sigma2


def min_power_uplink(h, gamma, sigma2, budget, rtol=1e-12, max_iter=10_000):
    """Minimum uplink powers giving every user SINR ``gamma``.

    Iterates the standard interference function from q = 0; the iterates
    grow monotonically, so the target is infeasible within ``budget`` as
    soon as their sum exceeds it.  Returns q, or None when infeasible.
    """
    k = h.shape[0]
    q = np.zeros(k)
    for _ in range(max_iter):
        new = np.empty(k)
        for i in range(k):
            rest = [j for j in range(k) if j != i]
            others = np.sqrt(q[rest])[:, None] * h[rest]
            new[i] = gamma / _inverse_form(h[i], others, sigma2)
        if new.sum() > budget:
            return None
        if np.all(np.abs(new - q) <= rtol * new):
            return new
        q = new
    raise RuntimeError("uplink power iteration did not settle")


def max_min_sinr(h, budget, sigma2, rel_tol=1e-12):
    """Largest common SINR reachable under the sum-power ``budget``.

    Bisects on log(gamma) between a certainly feasible target and the
    single-user bound budget * max ||h_k||^2 / sigma2.  Returns
    (gamma, uplink powers q).
    """
    h = np.asarray(h, dtype=complex)
    upper = budget * float(np.max(np.sum(np.abs(h) ** 2, axis=1))) / sigma2
    hi = math.log(upper)
    lo = hi - 80.0
    q_lo = min_power_uplink(h, math.exp(lo), sigma2, budget)
    if q_lo is None:
        raise ValueError("no common SINR is feasible")
    while hi - lo > rel_tol:
        mid = 0.5 * (lo + hi)
        q = min_power_uplink(h, math.exp(mid), sigma2, budget)
        if q is None:
            hi = mid
        else:
            lo, q_lo = mid, q
    return math.exp(lo), q_lo


def max_min_rate(h, budget, sigma2):
    """log2(1 + max-min SINR) in bps/Hz."""
    gamma, _ = max_min_sinr(h, budget, sigma2)
    return math.log2(1.0 + gamma)
