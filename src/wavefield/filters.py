"""Daubechies filter coefficients.

The order-K family is fixed by three algebraic constraint sets on the 2K
low-pass taps h_0..h_{2K-1}:

    sum_n h_n             = sqrt(2)
    sum_n h_n h_{n-2m}    = delta_{m0}          (double-shift orthonormality)
    sum_n n^m (-1)^n h_{2K-1-n} = 0,  m < K     (vanishing moments)

and the high-pass taps are the alternating flip g_l = (-1)^l h_{2K-1-l}.
The constraints do not single out one filter; we take the extremal-phase
(minimum-phase) solution, the classic tabulation, by spectral factorization
of the half-band polynomial: with y = (2 - z - 1/z)/4, the degree-(K-1)
polynomial P(y) = sum_{j<K} C(K-1+j, j) y^j is factorized in y (half the
degree of the equivalent Laurent polynomial in z), each root y_k is mapped
back through z^2 - (2 - 4 y_k) z + 1 = 0 to a reciprocal pair z, 1/z, and
the representative outside the unit circle is kept. Root products are
badly conditioned in float64 for K around 8 and beyond (coefficients would
lose ~10 digits), so the factorization runs in 60-digit arithmetic and is
rounded to float64 once at the end.  No polish follows: for K = 1..12 the
60-digit taps meet all three constraint families to 2.5e-59 (moments
scaled as below), and the nearest tap sits 0.0066 ulp from a float64
rounding boundary, so the float64 taps are the correctly rounded ones.

_TAPS holds that factorization's output for K = 1..12, written out as
float64 literals (shortest round-trip repr), so that no run pays for the
60-digit arithmetic or the mpmath import.  tests/test_filters.py keeps the
factorization as the oracle: it re-derives every literal bit for bit, and
sha256 pins guard the taps and their alternating flips.

A note on residuals: the vanishing-moment sums contain terms n^m h_n that
grow to ~1e10 by K = 10, so the raw float64 sum cannot cancel below
eps * (largest term) no matter how the taps are produced. Residuals
reported by ``constraint_residuals`` are therefore scaled by the largest
term of each sum (for m = 0 this is just max|h|), which measures exactly
the cancellation float64 can express.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedOrderError

K_MAX = 12


@dataclass(frozen=True)
class FilterPair:
    """Low-pass taps h and high-pass taps g for a Daubechies-K basis."""

    order: int
    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.h.setflags(write=False)
        self.g.setflags(write=False)


# extremal-phase Daubechies-K low-pass taps h_0..h_{2K-1}: the 60-digit
# spectral factorization (see module docstring) rounded to float64 once
_TAPS = {
    1: (0.7071067811865476, 0.7071067811865476),
    2: (0.48296291314453416, 0.8365163037378079, 0.2241438680420134,
        -0.12940952255126037),
    3: (0.33267055295008263, 0.8068915093110925, 0.45987750211849154,
        -0.13501102001025458, -0.08544127388202666, 0.03522629188570953),
    4: (0.2303778133088965, 0.7148465705529157, 0.6308807679298589,
        -0.027983769416859854, -0.18703481171909309, 0.030841381835560764,
        0.0328830116668852, -0.010597401785069032),
    5: (0.16010239797419293, 0.6038292697971896, 0.7243085284377729,
        0.13842814590132074, -0.24229488706638203, -0.032244869584638375,
        0.07757149384004572, -0.006241490212798274, -0.012580751999081999,
        0.0033357252854737712),
    6: (0.11154074335010947, 0.49462389039845306, 0.7511339080210954,
        0.31525035170919763, -0.22626469396543983, -0.12976686756726194,
        0.09750160558732304, 0.027522865530305727, -0.03158203931748603,
        0.0005538422011614961, 0.004777257510945511, -0.0010773010853084796),
    7: (0.07785205408500918, 0.3965393194819173, 0.7291320908462351,
        0.4697822874051931, -0.14390600392856498, -0.22403618499387498,
        0.07130921926683026, 0.08061260915108308, -0.03802993693501441,
        -0.01657454163066688, 0.01255099855609984, 0.0004295779729213665,
        -0.0018016407040474908, 0.00035371379997452024),
    8: (0.05441584224310401, 0.31287159091429995, 0.6756307362972898,
        0.5853546836542067, -0.015829105256349306, -0.2840155429615469,
        0.0004724845739132828, 0.12874742662047847, -0.017369301001807547,
        -0.044088253930794755, 0.013981027917398282, 0.008746094047405777,
        -0.004870352993451574, -0.00039174037337694705, 0.0006754494064505693,
        -0.00011747678412476953),
    9: (0.038077947363878345, 0.24383467461259034, 0.6048231236901112,
        0.6572880780513005, 0.13319738582500756, -0.2932737832791749,
        -0.09684078322297646, 0.14854074933810638, 0.03072568147933338,
        -0.06763282906132997, 0.00025094711483145197, 0.022361662123679096,
        -0.004723204757751397, -0.00428150368246343, 0.0018476468830562265,
        0.00023038576352319597, -0.0002519631889427101, 3.93473203162716e-05),
    10: (0.026670057900555554, 0.1881768000776915, 0.5272011889317256,
        0.6884590394536035, 0.2811723436605775, -0.24984642432731538,
        -0.19594627437737705, 0.12736934033579325, 0.09305736460357235,
        -0.07139414716639708, -0.029457536821875813, 0.033212674059341,
        0.0036065535669561697, -0.010733175483330575, 0.001395351747052901,
        0.001992405295185056, -0.0006858566949597116, -0.00011646685512928545,
        9.358867032006959e-05, -1.3264202894521244e-05),
    11: (0.018694297761471083, 0.1440670211506245, 0.44989976435604534,
        0.6856867749162006, 0.41196436894790744, -0.16227524502749036,
        -0.27423084681794696, 0.0660435881966832, 0.14981201246637849,
        -0.046479955116684187, -0.0664387856950252, 0.031335090219046076,
        0.020840904360181062, -0.0153648209062016, -0.0033408588730144454,
        0.004928417656059041, -0.0003085928588151432, -0.0008930232506662646,
        0.0002491525235528235, 5.4439074699368475e-05,
        -3.4634984186984996e-05, 4.49427427723651e-06),
    12: (0.013112257957229518, 0.10956627282118515, 0.37735513521421266,
        0.6571987225793071, 0.5158864784278157, -0.04476388565377463,
        -0.3161784537527855, -0.023779257256069726, 0.18247860592757967,
        0.00535956967435215, -0.09643212009650708, 0.010849130255822185,
        0.04154627749508444, -0.01221864906974828, -0.012840825198300683,
        0.00671149900879551, 0.0022486072409952378, -0.0021795036186277603,
        6.545128212509596e-06, 0.00038865306282093143, -8.850410920820432e-05,
        -2.4241545757030785e-05, 1.2776952219379767e-05,
        -1.529071758068511e-06),
}


@lru_cache(maxsize=None)
def _make_h(K):
    h = np.array(_TAPS[K])
    h.setflags(write=False)
    return h


def wavelet_taps(h):
    """Alternating flip g_l = (-1)^l h_{2K-1-l}, bit-identical mapping."""
    n = len(h)
    return np.array([(-1.0) ** l * h[n - 1 - l] for l in range(n)])


def make_filters(K):
    """Return the extremal-phase Daubechies-K FilterPair.

    Deterministic: repeated calls return bit-identical coefficient values.
    """
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool):
        raise UnsupportedOrderError(f"order must be an integer, got {K!r}")
    if not 1 <= K <= K_MAX:
        raise UnsupportedOrderError(f"order {K} outside supported range 1..{K_MAX}")
    h = _make_h(int(K))
    return FilterPair(order=int(K), h=h, g=wavelet_taps(h))


def constraint_residuals(h):
    """Residuals of the three constraint families for taps h.

    Returns a dict with keys 'sum', 'orthonormality', 'moments'. The moment
    residuals are scaled per-sum by the largest term magnitude (see module
    docstring); the other two families have O(1) terms and are raw.
    """
    h = np.asarray(h, dtype=float)
    n = len(h)
    K = n // 2
    out = {"sum": abs(h.sum() - np.sqrt(2.0))}

    worst = 0.0
    for m in range(K):
        target = 1.0 if m == 0 else 0.0
        acc = 0.0
        for i in range(n):
            j = i - 2 * m
            if 0 <= j < n:
                acc += h[i] * h[j]
        worst = max(worst, abs(acc - target))
    out["orthonormality"] = worst

    worst = 0.0
    flipped = h[::-1]
    idx = np.arange(n, dtype=float)
    signs = (-1.0) ** np.arange(n)
    for m in range(K):
        terms = idx**m * signs * flipped
        scale = max(np.abs(terms).max(), 1e-300)
        worst = max(worst, abs(terms.sum()) / scale)
    out["moments"] = worst
    return out
