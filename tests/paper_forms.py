"""The paper's printed forms, as bare expressions.

The library computes each of these values another way, and
test_paper_forms.py pins each form against the route that must agree:

- the Erlang mixture of the single-user BER against analytic.siso_ber
  (Craig's MGF integral);
- the residue series of the Meijer-G function against
  specfun.erfc_gamma_average, and the bare Meijer-G BER against
  analytic.multiuser_ber;
- the SINR distribution F(y) and its density against the Gamma law of the
  interference power;
- the multi-branch diversity approximation, against its hand values;
- the Erlang densities and their mixture, which test_analytic.py checks
  for unit mass and non-negativity.

Nothing here checks its inputs.  The Erlang mixture needs integer shapes
and pairwise distinct scales.  Its terms alternate in sign, so at high SNR
the sum loses its digits to cancellation: on the fig2-m23 paths it is
within 4e-11 of siso_ber up to 20 dB, but 7.4e-6 off at 30 dB and 0.26
off at 40 dB.  That is why the library route is Craig's.  The residue
series needs x <= 40, and m_z off the half-odd integers, where its two
families of poles collide.
"""

import math

from scipy import special


def erlang_pdf(z: float, k: int, mu: float) -> float:
    """Erlang(k, mu) density z^(k-1) e^(-z/mu) / (mu^k (k-1)!) on z >= 0."""
    return z ** (k - 1) * math.exp(-z / mu) / (mu ** k * math.factorial(k - 1))


def xi_terms(shapes, scales) -> list:
    """(weight, k, mu_i) triples such that sum weight * Erlang(z; k, mu_i) is
    the density of sum_q Gamma(m_q, mu_q).

    The weights are the principal-part coefficients of the Laplace transform
    prod_q (1 + mu_q s)^-m_q at each pole, by the power-sum recursion
    n c_n = sum_j e_j c_{n-j}.
    """
    terms = []
    for i, (mi, mui) in enumerate(zip(shapes, scales)):
        others = [(mq, muq) for q, (mq, muq) in enumerate(zip(shapes, scales)) if q != i]
        g0 = math.prod((mui / (mui - muq)) ** mq for mq, muq in others)
        e = {j: math.fsum(mq * (muq / (muq - mui)) ** j for mq, muq in others)
             for j in range(1, mi)}
        c = [1.0]
        for n in range(1, mi):
            c.append(math.fsum(e[j] * c[n - j] for j in range(1, n + 1)) / n)
        terms += [(g0 * c[n], mi - n, mui) for n in range(mi)]
    return terms


def mixture_pdf(z: float, terms) -> float:
    """sum weight * Erlang(z; k, mu) over the (weight, k, mu) triples of xi_terms."""
    return math.fsum(w * erlang_pdf(z, k, mu) for w, k, mu in terms)


def erlang_term_ser(k: int, mu: float, A: float, B: float) -> float:
    """A * E[Q(sqrt(2 B z))] for z ~ Erlang(k, mu):

        A ((1 - eta)/2)^k sum_{j<k} C(k-1+j, j) ((1 + eta)/2)^j,
        eta = sqrt(B mu / (1 + B mu)).
    """
    eta = math.sqrt(B * mu / (1.0 + B * mu))
    return A * ((1.0 - eta) / 2.0) ** k * math.fsum(
        math.comb(k - 1 + j, j) * ((1.0 + eta) / 2.0) ** j for j in range(k))


def mixture_ber(es_n0: float, paths, mod) -> float:
    """Single-user BER through the Erlang mixture of the path SNRs,
    mu_p = (Es/N0) Omega_p / m_p."""
    scales = [es_n0 * p.omega / p.m for p in paths]
    terms = xi_terms([int(p.m) for p in paths], scales)
    return math.fsum(w * erlang_term_ser(k, mu, mod.A, mod.B)
                     for w, k, mu in terms) / mod.bits_per_symbol


def meijer_g(x: float, m_z: float) -> float:
    """G(x) = E_W[erfc(sqrt(x / W))], W ~ Gamma(m_z, 1), by the residue series
    of its Meijer-G form: 1 plus the residues at the poles of Gamma(s + 1/2),
    s = -(k + 1/2), and of Gamma(m_z + s), s = -(m_z + k)."""
    terms = [1.0]
    for k in range(160):
        c = (-1) ** k / (math.factorial(k) * math.gamma(m_z) * math.sqrt(math.pi))
        terms.append(-c * math.gamma(m_z - 0.5 - k) / (k + 0.5) * x ** (k + 0.5))
        terms.append(-c * math.gamma(0.5 - m_z - k) / (m_z + k) * x ** (m_z + k))
    return math.fsum(terms)


def meijer_ber(es_n0: float, m_z: float, omega_z: float, mod) -> float:
    """The bare Meijer-G BER (A / (2 log2 M)) G((Es/N0) / omega_z).  It drops
    the unit noise floor and the Gaussian-tail constant B of the modulation."""
    return 0.5 * mod.A * meijer_g(es_n0 / omega_z, m_z) / mod.bits_per_symbol


def sinr_cdf(y: float, es_n0: float, m_z: float, omega_z: float) -> float:
    """F(y) = gamma(m_z, ((Es/N0)/y - 1) / omega_z) / Gamma(m_z), as printed."""
    return float(special.gammainc(m_z, (es_n0 / y - 1.0) / omega_z))


def sinr_pdf(y: float, es_n0: float, m_z: float, omega_z: float) -> float:
    """Density of SINR = (Es/N0) / (1 + S), S ~ Gamma(m_z, omega_z), on (0, Es/N0)."""
    w = es_n0 / y - 1.0
    return (w ** (m_z - 1.0) * math.exp(-w / omega_z)
            / (omega_z ** m_z * math.gamma(m_z)) * es_n0 / y ** 2)


def simo_gd_approx(k_u: int, shapes) -> float:
    """K_u [min(m) + (log2(1 + P) / P) sum_p (m_p - min(m))], P = len(shapes)."""
    P, m_min = len(shapes), min(shapes)
    return k_u * (m_min + math.log2(1 + P) / P * sum(m - m_min for m in shapes))
