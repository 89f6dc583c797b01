"""The standard normal lower tail and quantile, ported from Cephes.

``ndtr`` and ``ndtri`` follow ``ndtr.c`` and ``ndtri.c`` of S. L. Moshier's
Cephes library (*Methods and Programs for Mathematical Functions*, 1989),
the code scipy.special still compiles for its functions of the same names:
the same branches, coefficients and Horner order, so each result carries
the same bits as scipy's.  The exponential in ``erfc`` is ``math.exp``, the
C library's ``exp`` that the compiled code calls; ``np.exp`` has its own
vectorised kernels and differs from it in the last bit on some arguments.
``ndtri`` serves one level at a time, so it is scalar code on ``math``.
"""

import math

import numpy as np

SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
MAXLOG = 7.09782712893383996843e2  # log(largest double)
EXP_M2 = 0.13533528323661269189  # exp(-2)
S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) beyond
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: y - 1/2 for |y - 1/2| <= 1/2 - exp(-2), then z = sqrt(-2 log y) in [2, 8) and [8, 64)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] in Horner order; x a float or an array."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: ``_polevl`` with a leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtr(a):
    """Standard normal CDF at each a <= 0 (or NaN), elementwise.

    A float or 0-d input gives an ``np.float64`` and an array of any shape an
    array of that shape.  Positive arguments are outside the domain: the
    only caller asks for lower tails of -|z|.
    """
    x = np.asarray(a, dtype=np.float64) * SQRTH
    z = np.abs(x)
    y = np.where(np.isnan(x), np.nan, 0.0)  # erfc underflows to 0 past MAXLOG
    # 0.5 + 0.5 erf(x) for |x| < 1; an empty branch is skipped, since a
    # statistic often comes alone and each numpy call costs about a microsecond
    inner = z < 1.0
    if inner.any():
        xi = x[inner]
        xx = xi * xi
        y[inner] = 0.5 + 0.5 * (xi * _polevl(xx, _T) / _p1evl(xx, _U))
    # 0.5 erfc(|x|) where exp(-x^2) does not underflow
    outer = (z >= 1.0) & (z * z <= MAXLOG)
    if outer.any():
        zo = z[outer]
        e = np.array([math.exp(v) for v in (-zo * zo).tolist()])
        near = zo < 8.0
        p = np.where(near, _polevl(zo, _P), _polevl(zo, _R))
        q = np.where(near, _p1evl(zo, _Q), _p1evl(zo, _S))
        y[outer] = 0.5 * (e * p / q)
    return y[()]


def ndtri(y0: float) -> float:
    """The standard normal quantile of one probability y0 in [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - EXP_M2:
        y = 1.0 - y
        negate = False
    if y > EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x
