"""Exact references for the detection statistic, outside the library.

Every float is a dyadic rational, and the gauss-mean statistic is rational
in the data, so `fractions.Fraction` arithmetic over the floats as given
computes it without rounding.  Compare a transformed stream's statistic
against the reference on the transformed floats, not on the untransformed
data: a large shift quantises the input.
"""

from fractions import Fraction


def gauss_mean_statistic(x, theta0=None):
    """The exact doubled statistic 2 max_tau m(tau) after the last of the
    floats ``x``, direction both, as a Fraction.  S is the sum of x over the
    segment after tau, n its length and T = len(x):

    * theta0 known: 2 m = (S - n theta0)^2 / n, for 0 <= tau < T;
    * theta0 unknown (None): 2 m = (S tau - P n)^2 / (tau n T), P the sum
      before tau, for 0 < tau < T.  This is tau A(P / tau) + n A(S / n)
      - T A((P + S) / T) with A(g) = g^2 / 2.

    With both directions every tau counts: a segment mean at the pre-change
    mean gives 0 either way.
    """
    T = len(x)
    prefix = [Fraction(0)]
    for v in x:
        prefix.append(prefix[-1] + Fraction(v))
    total = prefix[T]
    if theta0 is not None:
        t0 = Fraction(theta0)
        terms = ((total - prefix[tau] - (T - tau) * t0) ** 2 / (T - tau) for tau in range(T))
    else:
        terms = (((total - prefix[tau]) * tau - prefix[tau] * (T - tau)) ** 2 / (tau * (T - tau) * T)
                 for tau in range(1, T))
    return max(terms, default=Fraction(0))
