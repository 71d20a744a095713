import functools
import math
import operator
import warnings
from hashlib import blake2b

import mpmath
import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import erfinv, gammainc

from smdmeta import numkernel
from smdmeta.numkernel import (
    _RUBEN_ROUND_ROWS,
    _ruben_cdf,
    DomainError,
    RandomStream,
    chisq_cdf,
    chisq_quantile,
    derive_stream_id,
    derive_stream_ids,
    mixture_cdf,
    normal_quantile,
    restart,
    t_quantile,
)
from smdmeta.smd import j_factor, sample_g


class TestChisq:
    def test_cdf_at_zero(self):
        assert chisq_cdf(0.0, 3.7) == 0.0

    def test_cdf_df1_normal_square(self):
        # P(chi2_1 <= 1) = 2 Phi(1) - 1 = erf(1/sqrt(2))
        assert chisq_cdf(1.0, 1.0) == pytest.approx(math.erf(1 / math.sqrt(2)),
                                                    abs=1e-10)

    def test_cdf_df4_closed_form(self):
        assert chisq_cdf(4.0, 4.0) == pytest.approx(1 - 3 * math.exp(-2),
                                                    abs=1e-10)

    def test_quantile_exponential_median(self):
        assert chisq_quantile(0.5, 2.0) == pytest.approx(2 * math.log(2),
                                                         abs=1e-10)

    def test_quantile_df1_squared_normal(self):
        # chi2_1 quantile is the square of sqrt(2) erfinv(p)
        for p in (0.025, 0.975):
            expect = 2 * erfinv(p) ** 2
            assert chisq_quantile(p, 1.0) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("df", [0.5, 1.0, 4.37, 29.0])
    @pytest.mark.parametrize("p", [0.001, 0.025, 0.3, 0.5, 0.9, 0.999])
    def test_roundtrip(self, df, p):
        x = chisq_quantile(p, df)
        assert chisq_cdf(x, df) == pytest.approx(p, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            chisq_cdf(-1.0, 2.0)
        with pytest.raises(DomainError):
            chisq_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            chisq_quantile(1.0, 2.0)
        with pytest.raises(DomainError):
            chisq_quantile(0.0, 2.0)


class TestTQuantile:
    def test_median(self):
        assert t_quantile(0.5, 7.0) == pytest.approx(0.0, abs=1e-12)

    def test_cauchy_closed_form(self):
        assert t_quantile(0.975, 1.0) == pytest.approx(
            math.tan(math.pi * 0.475), rel=1e-10)

    def test_normal_limit(self):
        assert t_quantile(0.975, 1e9) == pytest.approx(
            normal_quantile(0.975), abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            t_quantile(1.5, 3.0)


class TestRandomStream:
    def test_same_stream_same_sequence(self):
        a = RandomStream(17, 42).generator().standard_normal(6)
        b = RandomStream(17, 42).generator().standard_normal(6)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(17, 42).generator().standard_normal(6)
        b = RandomStream(17, 43).generator().standard_normal(6)
        assert not np.array_equal(a, b)

    def test_stream_id_derivation_is_stable(self):
        assert derive_stream_id("cell", 0.5, 3) == derive_stream_id("cell", 0.5, 3)
        assert derive_stream_id("cell", 0.5, 3) != derive_stream_id("cell", 0.5, 4)

    def test_seed_bounds(self):
        with pytest.raises(DomainError):
            RandomStream(-1, 0)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1, 2**63, 2**63 + 11,
                                      2**64 - 1])
    def test_restart_draws_as_a_fresh_philox(self, seed):
        # ids on both sides of 2^63 and within 1024 of 2^64, where
        # Philox(key=[seed, id]) rounds through float64 (numkernel.restart);
        # each restart follows draws that leave a half-used 32-bit word
        def draws(gen):
            return (gen.bit_generator.state["state"]["key"].tolist(),
                    gen.random(5).tolist(), gen.chisquare(7.0),
                    gen.integers(0, 2**32, 3, dtype=np.uint32).tolist())

        gen = Generator(Philox(0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for sid in (0, 7, 2**62 + 3, 2**63 - 1, 2**63, 2**63 + 1,
                        2**63 + 4097, 2**64 - 1024, 2**64 - 1):
                want = draws(Generator(Philox(key=[seed, sid])))
                assert draws(restart(gen, seed, sid)) == want
                assert draws(RandomStream(seed, sid).generator()) == want

    def test_stream_ids_share_a_prefix(self):
        assert derive_stream_ids(("cell", 0.5), [(3,), (4, "a"), ()]) == [
            derive_stream_id("cell", 0.5, 3),
            derive_stream_id("cell", 0.5, 4, "a"), derive_stream_id("cell", 0.5)]
        # the bytes hashed are those of every label's repr and a "|" after it
        assert derive_stream_id("cell", 0.5, 3) == int.from_bytes(
            blake2b(b"'cell'|0.5|3|", digest_size=8).digest(), "little")


def t_draws(gen, n_t, n_c, ncp, n):
    """n draws of sqrt(ntilde) g / J(m) from sample_g, ntilde = n_t n_c /
    (n_t + n_c): noncentral t with m = n_t + n_c - 2 df and the given ncp
    (the true effect is ncp / sqrt(ntilde))."""
    root_n = math.sqrt(n_t * n_c / (n_t + n_c))
    scale = root_n / j_factor(n_t + n_c - 2)
    return np.array([scale * sample_g(gen, n_t, n_c, ncp / root_n).g
                     for _ in range(n)])


class TestNoncentralT:
    """The noncentral t draw inside sample_g."""

    def test_deterministic_per_stream(self):
        s = RandomStream(5, 99)
        assert sample_g(s.generator(), 4, 5, 1.2) == \
            sample_g(s.generator(), 4, 5, 1.2)

    def test_mean_zero_when_central(self):
        gen = RandomStream(11, 0).generator()
        n = 100_000
        draws = t_draws(gen, 21, 21, 0.0, n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean()) < 4 * se

    def test_mean_matches_gamma_ratio(self):
        # E[T] = ncp * sqrt(m/2) Gamma((m-1)/2) / Gamma(m/2) = ncp / J(m)
        m, ncp = 12, 1.3
        gen = RandomStream(12, 1).generator()
        n = 100_000
        draws = t_draws(gen, 7, 7, ncp, n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert draws.mean() == pytest.approx(ncp / j_factor(m), abs=4 * se)

    def test_variance_matches_analytic(self):
        m, ncp = 10, 0.8
        gen = RandomStream(13, 2).generator()
        n = 100_000
        draws = t_draws(gen, 6, 6, ncp, n)
        var_exact = m * (1 + ncp ** 2) / (m - 2) - (ncp / j_factor(m)) ** 2
        # SE of the sample variance from the exact fourth moment
        e4 = (ncp ** 4 + 6 * ncp ** 2 + 3) * m * m / ((m - 2) * (m - 4))
        e1 = ncp / j_factor(m)
        e2 = m * (1 + ncp ** 2) / (m - 2)
        e3 = (ncp ** 3 + 3 * ncp) * (m / (m - 3)) / j_factor(m)
        mu4 = e4 - 4 * e1 * e3 + 6 * e1 ** 2 * e2 - 3 * e1 ** 4
        se_var = math.sqrt((mu4 - var_exact ** 2) / n)
        assert draws.var(ddof=1) == pytest.approx(var_exact, abs=5 * se_var)

    def test_df_domain(self):
        # an arm of 1 leaves m = 1 df
        with pytest.raises(DomainError):
            sample_g(RandomStream(1, 1).generator(), 1, 2, 0.0)


class TestMixtureCdf:
    def test_single_unit_coefficient_equals_chisq1(self):
        for x in np.linspace(0.05, 12.0, 25):
            assert mixture_cdf(float(x), [1.0]) == pytest.approx(
                chisq_cdf(float(x), 1.0), abs=1e-6)
        assert mixture_cdf(3.841, [1.0]) == pytest.approx(0.95, abs=1e-4)

    def test_equal_pair_collapses_to_chisq2(self):
        for x in (0.1, 1.0, 2.5, 4.2, 9.0):
            assert mixture_cdf(x, [1.0, 1.0]) == pytest.approx(
                chisq_cdf(x, 2.0), abs=1e-6)

    def test_against_monte_carlo(self):
        lam = (2.0, 1.0, 0.5)
        rng = np.random.default_rng(202)
        z = rng.standard_normal((200_000, 3))
        q = (np.array(lam) * z * z).sum(axis=1)
        for x in (1.0, 3.0, 5.0, 9.0):
            emp = float((q <= x).mean())
            assert mixture_cdf(x, lam) == pytest.approx(emp, abs=0.005)

    def test_scaling_consistency(self):
        # P(sum c*lam chi2 <= c*x) is scale-free
        lam = (3.0, 0.7, 1.4, 0.2)
        a = mixture_cdf(4.0, lam)
        b = mixture_cdf(10.0, 2.5 * np.array(lam))
        assert a == pytest.approx(b, abs=1e-6)

    def test_validation(self):
        for bad in ([], [1.0, -0.1], [0.0, 0.0]):
            with pytest.raises(DomainError):
                mixture_cdf(1.0, np.array(bad))

    @pytest.mark.parametrize("x, lam", [(2.0, [math.nan, 1.0]),
                                        (2.0, [1.0, math.inf]),
                                        (math.nan, [1.0, 2.0]),
                                        (math.inf, [1.0, 2.0])])
    def test_non_finite_input_raises(self, x, lam):
        with pytest.raises(DomainError):
            mixture_cdf(x, lam)

    def test_zero_coefficients_drop_out(self):
        assert mixture_cdf(2.0, np.array([0.0, 1.5, 0.0, 0.4])) == \
            mixture_cdf(2.0, np.array([1.5, 0.4]))


def reference_ruben_cdf(x, lam, tol, max_terms):
    """The per-term Ruben series loop that `_ruben_cdf` replaced, kept as its
    oracle, checking the sharper tail bound every 8 terms.  Returns (p, bound,
    number of terms, 1 - sum of the series coefficients)."""
    beta = lam.min()
    nu = lam.size
    y = x / beta
    t = 1.0 - beta / lam
    a = np.empty(max_terms + 1)
    g = np.empty(max_terms + 1)
    a[0] = math.exp(0.5 * float(np.log(beta / lam).sum()))
    asum = a[0]
    tpow = np.ones_like(lam)
    nterms = None
    for k in range(1, max_terms + 1):
        tpow *= t
        g[k] = tpow.sum()
        a[k] = float(np.dot(g[1:k + 1], a[k - 1::-1])) / (2.0 * k)
        asum += a[k]
        if 1.0 - asum <= 0.5 * tol:
            nterms = k
            break
        if k % 8 == 0:
            if (1.0 - asum) * chisq_cdf(y, nu + 2 * k + 2) <= 0.5 * tol:
                nterms = k
                break
    if nterms is None:
        return None
    ks = np.arange(nterms + 1)
    terms = gammainc(nu / 2.0 + ks, y / 2.0)
    p = float(np.dot(a[:nterms + 1], terms))
    bound = (1.0 - asum) * chisq_cdf(y, nu + 2 * nterms + 2)
    return min(1.0, p + 0.5 * bound), 0.5 * bound, nterms, 1.0 - asum


def seeded_mixture(k, spread, seed):
    """K log-uniform coefficients spanning exactly [1, spread], and Monte
    Carlo draws of the mixture for picking its quantiles."""
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(0.0, math.log(spread), k))
    lam[0], lam[-1] = 1.0, spread
    z = rng.standard_normal((20_000, k))
    return lam, (lam * z * z).sum(axis=1)


class TestRubenSeriesOracle:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 30, 100])
    @pytest.mark.parametrize("spread", [1.0 + 1e-9, 3.0, 30.0, 1e3])
    def test_matches_per_term_loop(self, k, spread):
        lam, draws = seeded_mixture(k, spread, seed=k)
        for x in np.quantile(draws, [0.01, 0.5, 0.99]):
            for tol in (1e-6, 1e-5):
                ref = reference_ruben_cdf(float(x), lam, tol, 8000)
                new = _ruben_cdf(np.array([x]), lam[None], tol, 8000)[0]
                assert (ref is None) == (new is None)
                if ref is not None:
                    assert new[0] == pytest.approx(ref[0], abs=1e-13)
                    assert new[1] == pytest.approx(ref[1], abs=1e-13)

    def test_sharper_bound_stop_between_checks_32_terms_apart(self):
        lam, draws = seeded_mixture(10, 30.0, seed=1)
        x = float(np.quantile(draws, 0.01))
        ref = reference_ruben_cdf(x, lam, 1e-6, 8000)
        # stopped by the sharper bound at 24 terms, with 1 - sum(a_k) far
        # above tol/2: a check every 32 terms would have gone on to 32
        assert ref[2] == 24 and ref[3] > 0.5 and ref[1] > 0.0
        new = _ruben_cdf(np.array([x]), lam[None], 1e-6, 8000)[0]
        assert new[0] == pytest.approx(ref[0], abs=1e-13)
        assert new[1] == pytest.approx(ref[1], abs=1e-13)

    def test_series_longer_than_one_block(self):
        lam, draws = seeded_mixture(5, 30.0, seed=2)
        x = float(np.quantile(draws, 0.99))
        ref = reference_ruben_cdf(x, lam, 1e-6, 8000)
        assert ref[2] > 64
        new = _ruben_cdf(np.array([x]), lam[None], 1e-6, 8000)[0]
        assert new[0] == pytest.approx(ref[0], abs=1e-13)

    def test_max_terms_exhausted_returns_none(self):
        lam, draws = seeded_mixture(5, 1e3, seed=3)
        x = float(np.quantile(draws, 0.99))
        assert reference_ruben_cdf(x, lam, 1e-6, 40) is None
        assert _ruben_cdf(np.array([x]), lam[None], 1e-6, 40)[0] is None



def seeded_round(rows, seed, spreads=(1.0 + 1e-9, 1e3)):
    """A round of `rows` mixtures of one size (2, 5 or 10 by seed), each
    with its own spread between 1 + 1e-9 and 1e3, at an x between 0.1 and 3
    times its mean: a mix of short series and series past 40 and 64 terms."""
    rng = np.random.default_rng(seed)
    nu = (2, 5, 10)[seed % 3]
    spreads = np.exp(rng.uniform(*np.log(spreads), rows))
    lam = np.exp(rng.uniform(0.0, 1.0, (rows, nu)) * np.log(spreads)[:, None])
    lam[:, 0], lam[:, -1] = 1.0, spreads
    return lam.sum(1) * rng.uniform(0.1, 3.0, rows), lam


def first_pairwise_miss(lam, terms):
    """The first k >= 8 at which np.add.reduce over the products g_i a_{k-i}
    laid out as (k, rows), a transposed view, gives some row's a_k other
    bits than adding them in order, or None up to `terms`."""
    beta = lam.min(1, keepdims=True)
    g = np.power((1.0 - beta / lam)[:, :, None],
                 np.arange(1.0, terms + 1)).sum(1)
    a = np.empty((len(lam), terms + 1))
    a[:, 0] = np.exp(0.5 * np.log(beta / lam).sum(1))
    for k in range(1, terms + 1):
        products = g[:, :k] * a[:, k - 1::-1]
        in_order = [functools.reduce(operator.add, row)
                    for row in products.tolist()]
        paired = np.add.reduce(products.T, axis=0)
        if k >= 8 and (paired != in_order).any():
            return k
        a[:, k] = np.array(in_order) / (2.0 * k)
    return None


class TestRubenRounds:
    # A round of _RUBEN_ROUND_ROWS rows or more steps its rows together, a
    # smaller one runs each row alone; both add every a_k's products in
    # order, so no row's bits may depend on the rows that share its round.

    @pytest.mark.parametrize("rows", range(1, 3 * _RUBEN_ROUND_ROWS + 1))
    def test_every_row_equals_the_row_alone(self, rows):
        x, lam = seeded_round(rows, seed=rows)
        for tol, max_terms in ((1e-6, 8000), (1e-5, 8000), (1e-6, 50)):
            together = _ruben_cdf(x, lam, tol, max_terms)
            for i, row in enumerate(together):
                alone, = _ruben_cdf(x[i:i + 1], lam[i:i + 1], tol, max_terms)
                assert row == alone, (i, tol, max_terms)

    def test_rounds_reach_past_40_and_64_terms(self):
        # each row's term count, from the per-term oracle at spreads <= 50
        counts = []
        for rows in range(1, 3 * _RUBEN_ROUND_ROWS + 1):
            x, lam = seeded_round(rows, seed=rows)
            for xi, row in zip(x, lam):
                if row[-1] <= 50.0:
                    counts.append(reference_ruben_cdf(xi, row, 1e-6, 8000)[2])
        counts = np.array(counts)
        assert (counts <= 40).any() and (counts > 64).any()
        assert ((40 < counts) & (counts <= 64)).any()

    def test_a_round_a_pairwise_sum_would_change(self):
        # in this round of _RUBEN_ROUND_ROWS rows, np.add.reduce over the
        # (k, rows) layout would add some a_k, k >= 8, with other bits than
        # in order (numpy 2.4 does so at k = 8)
        x, lam = seeded_round(_RUBEN_ROUND_ROWS, seed=0)
        assert first_pairwise_miss(lam, 40) is not None
        together = _ruben_cdf(x, lam, 1e-6, 8000)
        for i, row in enumerate(together):
            assert row == _ruben_cdf(x[i:i + 1], lam[i:i + 1], 1e-6, 8000)[0]
            ref = reference_ruben_cdf(float(x[i]), lam[i], 1e-6, 8000)
            assert row[0] == pytest.approx(ref[0], abs=1e-13)


class TestRubenHopelessRows:
    # A row whose largest t alone leaves more than tol of the series sum
    # after max_terms, times F_{nu+2k+2}(y), cannot stop: it gets its None
    # without the long series.

    @pytest.mark.parametrize("max_terms", [50, 200])
    @pytest.mark.parametrize("rows", [1, 2, 3 * _RUBEN_ROUND_ROWS])
    def test_none_exactly_where_the_per_term_loop_gives_none(self, rows,
                                                             max_terms):
        x, lam = seeded_round(rows, seed=max_terms + rows,
                              spreads=(2.0, 1e6))
        kinds = set()
        for tol in (1e-6, 1e-5):
            for xi, row, new in zip(x, lam, _ruben_cdf(x, lam, tol,
                                                       max_terms)):
                ref = reference_ruben_cdf(float(xi), row, tol, max_terms)
                assert (new is None) == (ref is None)
                if ref is not None:
                    assert new[0] == pytest.approx(ref[0], abs=1e-13)
                kinds.add(new is None)
        assert rows < _RUBEN_ROUND_ROWS or kinds == {True, False}

    def test_a_hopeless_row_runs_no_long_series(self, monkeypatch):
        # spread 2e3 at three times the mean: after 8,000 terms the terms of
        # the largest t alone leave 0.5% of the sum, and F_{nu+16002}(y) ~ 1
        lam = np.geomspace(1.0, 2e3, 30)
        x = 3.0 * lam.sum()
        assert reference_ruben_cdf(x, lam, 1e-6, 8000) is None
        calls = []

        def counted(*args):
            calls.append(args)
            return gammainc(*args)

        monkeypatch.setattr(numkernel, "gammainc", counted)
        for rows in (1, _RUBEN_ROUND_ROWS):
            calls.clear()
            assert _ruben_cdf(np.full(rows, x), np.tile(lam, (rows, 1)), 1e-6,
                              8000) == [None] * rows
            # the bound, the checks of the first 40 terms and the closing F,
            # where the series would check its bound every 8 terms to 8,000
            assert len(calls) <= 3


def test_series_sums_add_in_order():
    # Ruben's recurrence adds its products one after another, as sum() did
    # up to Python 3.11; sum() compensates from 3.12 on, which gives
    # 0x1.ff64748301d33p-1 here
    (p, _), = _ruben_cdf(np.array([100.0]), np.array([[1.0, 2.0, 3.0, 5.0,
                                                        8.0]]), 1e-6, 8000)
    assert p.hex() == "0x1.ff64748301d35p-1"


def mpmath_ruben_cdf(x, lam, tail=1e-12):
    """Ruben's series summed with 40 significant digits, to a remainder
    below `tail`.  Its convolution sum_j g_j a_{k-j}, g_j = sum_i t_i^j, is
    regrouped by coefficient as sum_i h_i with h_i <- t_i (h_i + a_{k-1}):
    K nonnegative terms per coefficient, so no cancellation, and a summation
    order that `_ruben_cdf` does not share."""
    with mpmath.workdps(40):
        lam = [mpmath.mpf(float(v)) for v in lam]
        beta = min(lam)
        t = [1 - beta / v for v in lam]
        half_nu, half_y = mpmath.mpf(len(lam)) / 2, mpmath.mpf(x) / beta / 2
        a = mpmath.fprod(mpmath.sqrt(beta / v) for v in lam)
        h = [mpmath.mpf(0)] * len(lam)
        # F_{nu+2m}(y), and F_{nu+2m}(y) - F_{nu+2m+2}(y) as `step`
        f = mpmath.gammainc(half_nu, 0, half_y, regularized=True)
        step = mpmath.exp(half_nu * mpmath.log(half_y) - half_y
                          - mpmath.loggamma(half_nu + 1))
        p = asum = mpmath.mpf(0)
        for m in range(100_000):
            p += a * f
            asum += a
            f -= step
            step *= half_y / (half_nu + m + 1)
            if (1 - asum) * f <= tail:  # bounds the terms after the m-th
                return float(p)
            h = [ti * (hi + a) for ti, hi in zip(t, h)]
            a = mpmath.fsum(h) / (2 * (m + 1))
        raise AssertionError("the 40-digit series did not converge")


class TestMixtureCdfCertificate:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 30])
    @pytest.mark.parametrize("spread", [1.0, 3.0, 30.0, 1e3])
    def test_within_tol_of_40_digit_series(self, k, spread):
        lam, draws = seeded_mixture(k, spread, seed=k)
        for x in np.quantile(draws, [0.01, 0.5, 0.99]):
            exact = mpmath_ruben_cdf(float(x), lam)
            for tol in (1e-6, 1e-5):
                assert abs(mixture_cdf(float(x), lam, tol) - exact) <= tol
