"""EC densities, expected EC, corrected p-values and thresholds.

The reference configurations reproduce the published full-volume,
small-volume and time-frequency tables of the movement MEG study; those
reported numbers anchor the convention choices.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from topostat import (
    FieldType,
    ReselVector,
    build_lattice,
    corrected_threshold,
    ec_density,
    expected_ec,
    fwe_p,
    intrinsic_volumes,
    lkc_top,
    lkc_vector,
    restrict,
)
from topostat.domain import IntrinsicVolumes
from topostat.ecd import THRESHOLD_FLOOR, THRESHOLD_TOL, _tail_quantile
from topostat.infer import conditional_peak_p
from topostat.lkc import FOUR_LOG2
from topostat.simulate import SimConfig, gen_field
from tests.test_lkc import residual_set_from_raw

T12 = FieldType.student_t(12)
T11 = FieldType.student_t(11)
GAUSS = FieldType.gaussian()


def box_mu(n_bins: float) -> IntrinsicVolumes:
    """Intrinsic volumes of the 64 x 64 x (n_bins/4096) reporting box."""
    a = b = 63.0
    c = n_bins / 4096.0 - 1.0
    return IntrinsicVolumes((1.0, a + b + c, a * b + (a + b) * c, a * b * c))


TABLE1 = lkc_vector(230.3 * FOUR_LOG2 ** 1.5, box_mu(1_808_083))
TABLE2 = lkc_vector(11.5 * FOUR_LOG2 ** 1.5, box_mu(82_340))
TABLE3 = lkc_vector(149.4 * FOUR_LOG2 ** 1.5, box_mu(1_808_083))
POINT = ReselVector.from_resels((1.0, 0.0, 0.0, 0.0))
# what a NaN residual inside the mask turns a 2D search into
NAN_RESELS = ReselVector.from_resels((1.0, math.nan, math.nan))


class TestEcDensity:
    def test_gaussian_rho3_root_at_one(self):
        assert ec_density(GAUSS, 3, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_rho0_at_zero(self):
        assert ec_density(GAUSS, 0, 0.0) == pytest.approx(0.5)

    def test_student_rho3_dominant_table1_term(self):
        # 230.3 * rho_3(3.93) carries most of the expected cluster count
        val = 230.3 * ec_density(T12, 3, 3.93)
        assert val == pytest.approx(3.75, abs=0.05)

    def test_feature_threshold_tail(self):
        # T = 3.93 at 12 dof and T = 4.02 at 11 dof both sit at p = 0.001
        assert ec_density(T12, 0, 3.93) == pytest.approx(0.001, abs=2e-5)
        assert ec_density(T11, 0, 4.02) == pytest.approx(0.001, abs=2e-5)

    def test_dimension_range_checked(self):
        with pytest.raises(ValueError):
            ec_density(GAUSS, 4, 2.0)
        with pytest.raises(ValueError):
            ec_density(GAUSS, -1, 2.0)

    def test_student_to_gaussian_limit(self):
        big = FieldType.student_t(1e6)
        t = np.linspace(2.0, 6.0, 21)
        for d in range(4):
            ratio = ec_density(big, d, t) / ec_density(GAUSS, d, t)
            np.testing.assert_allclose(ratio, 1.0, rtol=1e-3)

    def test_vectorized_matches_scalar(self):
        t = np.array([2.0, 3.5, 5.0])
        vec = ec_density(T12, 2, t)
        np.testing.assert_array_equal(
            vec, [ec_density(T12, 2, x) for x in t])


class TestExpectedEc:
    def test_point_search_is_tail_probability(self):
        for t in (1.5, 2.5, 4.0):
            assert expected_ec(POINT, GAUSS, t) == \
                pytest.approx(ec_density(GAUSS, 0, t), rel=1e-14)

    def test_table1_expected_clusters(self):
        total = expected_ec(TABLE1, T12, 3.93)
        assert total == pytest.approx(4.96, rel=0.05)

    def test_table1_peak(self):
        assert expected_ec(TABLE1, T12, 8.71) == \
            pytest.approx(0.036, abs=0.004)

    def test_breakdown_sums_to_total(self):
        terms = [r * ec_density(T12, d, 3.0) for d, r in enumerate(TABLE1.resels)]
        assert len(terms) == 4
        assert expected_ec(TABLE1, T12, 3.0) == terms[0] + terms[1] + terms[2] + terms[3]

    @given(
        field=st.one_of(st.just(GAUSS), st.integers(1, 200).map(FieldType.student_t),
                        st.floats(1.0, 200.0).map(FieldType.student_t)),
        resels=st.integers(1, 3).flatmap(lambda dim: st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e5)), min_size=dim + 1, max_size=dim + 1)),
        t=st.one_of(st.floats(-30.0, 30.0),
                    st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6).map(np.array)),
    )
    @example(field=T12, resels=[1.0, 0.0, 5.0], t=0.0)
    @example(field=GAUSS, resels=[1.0, 2.0, 0.0, 3.0], t=np.array([-30.0, 0.0, 30.0]))
    @example(field=FieldType.student_t(1), resels=[1.0, 2.0], t=30.0)
    def test_equals_ordered_sum_of_densities(self, field, resels, t):
        resels = ReselVector.from_resels(resels)
        want = 0.0
        for d, r in enumerate(resels.resels):
            want = want + r * ec_density(field, d, t)
        got = expected_ec(resels, field, t)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_four_dimensional_resels_rejected(self):
        with pytest.raises(ValueError, match="0 <= d <= 3"):
            expected_ec(ReselVector.from_resels([1.0, 1.0, 1.0, 1.0, 1.0]), T12, 3.0)


class TestFweP:
    def test_table2_small_volume_peak(self):
        assert fwe_p(6.86, TABLE2, T12) == pytest.approx(0.013, abs=0.002)

    def test_table3_tf_peak(self):
        assert fwe_p(9.05, TABLE3, T11) == pytest.approx(0.033, abs=0.004)

    def test_monotone_to_zero(self):
        heights = np.linspace(2.0, 40.0, 60)
        p = [fwe_p(h, TABLE1, T12) for h in heights]
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert p[-1] < 1e-6  # polynomial t tail, not Gaussian
        assert fwe_p(np.inf, TABLE1, T12) == 0.0

    def test_clamped_to_unit_interval(self):
        assert fwe_p(2.0, TABLE1, T12) == 1.0

    def test_non_finite_resels_or_height_rejected(self):
        with pytest.raises(ValueError, match="resels must be finite"):
            fwe_p(5.0, NAN_RESELS, T11)
        with pytest.raises(ValueError, match="resels must be finite"):
            fwe_p(5.0, ReselVector.from_resels((1.0, math.inf, 3.0)), T11)
        with pytest.raises(ValueError, match="NaN"):
            fwe_p(math.nan, TABLE1, T12)

    def test_nondecreasing_in_resels(self):
        # above the clamp region doubling the resels strictly raises p
        doubled = ReselVector.from_resels([2 * r for r in TABLE1.resels])
        for t in (6.0, 7.5, 9.0):
            assert fwe_p(t, doubled, T12) > fwe_p(t, TABLE1, T12)


HEIGHTS = np.concatenate([np.linspace(-4.0, 40.0, 441), [0.0, np.inf, -np.inf]])


class TestArrayMatchesScalar:
    """Array calls equal the scalar calls element by element, bit for bit."""

    @pytest.mark.parametrize("field", [GAUSS, T11, FieldType.student_t(2.5)])
    @pytest.mark.parametrize("resels", [TABLE1, POINT])
    def test_every_function(self, field, resels):
        with np.errstate(invalid="ignore"):  # inf * 0 in the densities at +-inf
            for d in range(4):
                np.testing.assert_array_equal(ec_density(field, d, HEIGHTS),
                                              [ec_density(field, d, h) for h in HEIGHTS])
            np.testing.assert_array_equal(expected_ec(resels, field, HEIGHTS),
                                          [expected_ec(resels, field, h) for h in HEIGHTS])
            np.testing.assert_array_equal(fwe_p(HEIGHTS, resels, field),
                                          [fwe_p(h, resels, field) for h in HEIGHTS])
            # E[EC](0.3) < 0 for TABLE1 (rho_3 is negative below t = 1)
            heights = np.abs(HEIGHTS)
            for t_feature in (3.0, 0.3):
                np.testing.assert_array_equal(
                    conditional_peak_p(heights, t_feature, resels, field),
                    [conditional_peak_p(h, t_feature, resels, field) for h in heights])

    def test_scalar_in_float_out(self):
        for value in (expected_ec(TABLE1, T12, 4.0), fwe_p(4.0, TABLE1, T12),
                      conditional_peak_p(4.0, 3.0, TABLE1, T12),
                      conditional_peak_p(4.0, 0.3, TABLE1, GAUSS)):
            assert type(value) is float

    def test_empty_peak_set(self):
        none = np.empty(0)
        for out in (expected_ec(TABLE1, T12, none), fwe_p(none, TABLE1, T12),
                    conditional_peak_p(none, 3.0, TABLE1, T12),
                    conditional_peak_p(none, 0.3, TABLE1, GAUSS)):
            assert out.shape == (0,)

    def test_infinite_and_nan_heights(self):
        np.testing.assert_array_equal(fwe_p(np.array([np.inf, -np.inf]), TABLE1, T12),
                                      [0.0, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            fwe_p(np.array([5.0, math.nan]), TABLE1, T12)

    def test_nan_expected_ec_ratio_stays_nan(self):
        # E[EC](inf) is NaN (inf * 0 in rho_2, rho_3): at t_feature = inf the
        # ratio is NaN, not 1; a t_peak of inf takes E[EC]'s limit 0, as in fwe_p
        with np.errstate(invalid="ignore"):
            assert math.isnan(conditional_peak_p(4.0, math.inf, TABLE1, T12))
            assert conditional_peak_p(math.inf, 3.0, TABLE1, T12) == 0.0
            np.testing.assert_array_equal(
                conditional_peak_p(np.array([4.0, math.inf]), math.inf, TABLE1, T12),
                [math.nan, math.nan])
            np.testing.assert_array_equal(
                conditional_peak_p(np.array([4.0, math.inf]), 3.0, TABLE1, T12),
                [conditional_peak_p(4.0, 3.0, TABLE1, T12), 0.0])

    @pytest.mark.parametrize("resels", [POINT, ReselVector.from_resels((1.0, 3.0)),
                                        ReselVector.from_resels((1.0, 4.0, 9.0)), TABLE1])
    @pytest.mark.parametrize("field", [GAUSS, T12])
    def test_infinite_peak_heights_evaluate_no_inf_times_zero(self, resels, field):
        # E[EC] is evaluated at finite heights only: no RuntimeWarning, which
        # this suite turns into an error, on any resel dimension
        p = conditional_peak_p(np.array([math.inf, 4.0, -math.inf, math.nan]), 3.0,
                               resels, field)
        assert p[0] == 0.0 and np.isnan(p[2:]).all()
        assert p[1] == conditional_peak_p(4.0, 3.0, resels, field)
        assert conditional_peak_p(math.inf, 3.0, resels, field) == 0.0


class TestCorrectedThreshold:
    def test_point_search_gaussian_quantile(self):
        t_star = corrected_threshold(0.05, POINT, GAUSS)
        assert t_star == pytest.approx(1.6449, abs=1e-4)

    def test_round_trip(self):
        for alpha in (0.01, 0.05, 0.1):
            t_star = corrected_threshold(alpha, TABLE1, T12)
            assert abs(fwe_p(t_star, TABLE1, T12) - alpha) < 1e-6

    def test_doubling_resels_raises_threshold(self):
        doubled = ReselVector.from_resels([2 * r for r in TABLE1.resels])
        assert corrected_threshold(0.05, doubled, T12) > \
            corrected_threshold(0.05, TABLE1, T12)

    def test_unbracketed_warns_and_returns_floor(self):
        # not a pure point search, yet even t=2 gives E[EC] below alpha
        tiny = ReselVector.from_resels((1.0, 1e-6, 1e-6, 1e-6))
        with pytest.warns(UserWarning, match="not bracketed"):
            t_star = corrected_threshold(0.05, tiny, GAUSS)
        assert t_star == 2.0

    def test_point_search_below_floor_brackets(self):
        # a permissive alpha on a point search lands below the floor
        t_star = corrected_threshold(0.5, POINT, GAUSS)
        assert t_star == pytest.approx(0.0, abs=1e-4)

    def test_alpha_one_degenerate(self):
        assert corrected_threshold(1.0, TABLE1, T12) == 2.0

    def test_non_finite_resels_rejected(self):
        # every NaN comparison in the bisection is False, which used to
        # return 2.0000005 here without a word
        for alpha in (0.05, 1.0):
            with pytest.raises(ValueError, match="resels must be finite"):
                corrected_threshold(alpha, NAN_RESELS, T11)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            corrected_threshold(0.0, TABLE1, T12)
        with pytest.raises(ValueError):
            corrected_threshold(1.5, TABLE1, T12)


def stepping_threshold(alpha, resels, field):
    """The stepping search that set point-search thresholds before the closed
    form (reference): below the floor in unit steps down to -60, then bisection."""
    if alpha == 1.0:
        return THRESHOLD_FLOOR
    lo = THRESHOLD_FLOOR
    hi = None
    if expected_ec(resels, field, lo) < alpha:
        if not all(r == 0.0 for r in resels.resels[1:]):
            warnings.warn(f"expected EC at t={lo} is below alpha={alpha}; "
                          "threshold not bracketed")
            return lo
        while expected_ec(resels, field, lo) < alpha and lo > -60.0:
            hi = lo
            lo -= 1.0
        if expected_ec(resels, field, lo) < alpha:
            warnings.warn(f"alpha={alpha} exceeds the point-search ceiling; "
                          "threshold not bracketed")
            return THRESHOLD_FLOOR
    if hi is None:
        hi = lo + 1.0
        while expected_ec(resels, field, hi) > alpha:
            lo = hi
            hi = 2.0 * hi
            if hi > 1e6:
                raise RuntimeError("failed to bracket the corrected threshold")
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if expected_ec(resels, field, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_outcome(search, alpha, resels, field):
    """(the threshold's hex or the error, the warnings' categories and
    messages) of one search."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = search(alpha, resels, field).hex()
        except RuntimeError as err:
            result = repr(err)
    return result, [(w.category, str(w.message)) for w in caught]


@st.composite
def fields_for(draw, dimension):
    """A Gaussian field, or a t field with dof > D (and >= 1), so that E[EC]
    falls to 0."""
    if draw(st.booleans()):
        return GAUSS
    return FieldType.student_t(draw(
        st.integers(dimension + 1, 200)
        | st.floats(max(dimension, 1), 200.0, exclude_min=dimension > 0)))


@st.composite
def non_point_searches(draw):
    dimension = draw(st.integers(1, 3))
    higher = draw(st.lists(st.floats(0.0, 1e4), min_size=dimension, max_size=dimension))
    assume(any(r != 0.0 for r in higher))
    r0 = draw(st.floats(-2.0, 10.0))
    return ReselVector.from_resels([r0, *higher]), draw(fields_for(dimension))


@st.composite
def point_searches(draw, r0):
    resels = ReselVector.from_resels([draw(r0)] + [0.0] * draw(st.integers(0, 3)))
    return resels, draw(fields_for(0))


class TestCorrectedThresholdProperties:
    @pytest.mark.thorough
    @given(st.floats(1e-6, 1.0), non_point_searches())
    def test_non_point_threshold_matches_stepping_search(self, alpha, search):
        """Every search with a higher resel count is the bisection it was,
        bit for bit, with the same warnings or error."""
        resels, field = search
        assert threshold_outcome(corrected_threshold, alpha, resels, field) == \
            threshold_outcome(stepping_threshold, alpha, resels, field)

    @pytest.mark.thorough
    @given(st.floats(1e-6, 1.0, exclude_min=True, exclude_max=True),
           point_searches(st.floats(0.0, 50.0, exclude_min=True)))
    @example(alpha=0.5, search=(POINT, GAUSS))
    @example(alpha=1e-6 * (1 + 1e-15), search=(ReselVector.from_resels((50.0,)),
                                              FieldType.student_t(1)))
    @example(alpha=0.9999, search=(ReselVector.from_resels((1.0,)), FieldType.student_t(1)))
    # E[EC] is flat to the last bit around t*, so the stepping search may stop anywhere
    @example(alpha=0.9999999999999999, search=(ReselVector.from_resels((1.0,)), GAUSS))
    @example(alpha=0.9999999999999998, search=(ReselVector.from_resels((1.0,)),
                                               FieldType.student_t(12)))
    def test_point_threshold_is_tail_quantile(self, alpha, search):
        """A point search's threshold is rho_0's inverse at alpha / resels_0,
        where E[EC] is alpha, and within half the bisection's bracket of the
        stepping search's wherever that search reached it and E[EC] falls by
        more than an ulp of alpha across that bracket. Where it does not, the
        stepping search's answer is some point of the plateau, at which E[EC]
        is alpha to the ulp."""
        resels, field = search
        assume(alpha < resels.resels[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_star = corrected_threshold(alpha, resels, field)
        assert t_star == _tail_quantile(field, alpha / resels.resels[0])
        assert expected_ec(resels, field, t_star) == pytest.approx(alpha, rel=1e-12)
        reference, caught = threshold_outcome(stepping_threshold, alpha, resels, field)
        if "ceiling" in str(caught):  # the steps stopped at -60
            assert t_star < -60.0 + THRESHOLD_TOL
        elif "bracket" in reference:  # the doubling stopped at 1e6
            assert t_star > 5e5
        else:
            assert caught == []
            t_ref, half = float.fromhex(reference), THRESHOLD_TOL / 2
            fall = expected_ec(resels, field, t_star - half) - expected_ec(resels, field,
                                                                          t_star + half)
            if fall > math.ulp(alpha):
                assert abs(t_star - t_ref) <= half
            else:
                assert abs(expected_ec(resels, field, t_ref) - alpha) <= math.ulp(alpha)

    @pytest.mark.thorough
    @given(st.floats(1e-6, 1.0, exclude_max=True), point_searches(st.floats(-5.0, 1.0)))
    @example(alpha=0.05, search=(ReselVector.from_resels((0.05, 0.0)), GAUSS))
    @example(alpha=0.05, search=(ReselVector.from_resels((0.0, 0.0, 0.0)), T12))
    def test_point_ceiling_warns_and_returns_floor(self, alpha, search):
        """alpha at or beyond resels_0, or no point at all: E[EC] never
        reaches alpha, so the floor comes back with a warning."""
        resels, field = search
        assume(not 0.0 < alpha < resels.resels[0])
        with pytest.warns(UserWarning, match="point-search ceiling"):
            assert corrected_threshold(alpha, resels, field) == THRESHOLD_FLOOR


class TestRestrict:
    def _smooth_residuals(self, dims, fwhm, n, seed):
        cfg = SimConfig(dims=dims, fwhm=fwhm, n_realizations=n, seed=seed)
        raw = np.stack([gen_field(cfg, i).ravel() for i in range(n)])
        return residual_set_from_raw(raw - raw.mean(axis=0))

    def test_full_mask_restriction_is_identity(self):
        dims = (10, 10, 16)
        space = build_lattice(dims, np.ones(int(np.prod(dims)), bool))
        res = self._smooth_residuals(dims, (4.0, 4.0, 4.0), 10, 21)
        sub = space.restricted(np.ones(dims, dtype=bool))
        assert lkc_top(res, sub) == lkc_top(res, space)
        mu_a, mu_b = intrinsic_volumes(space), intrinsic_volumes(sub)
        assert mu_a.mu == mu_b.mu
        rv_a = lkc_vector(lkc_top(res, space), mu_a)
        rv_b = lkc_vector(lkc_top(res, sub), mu_b)
        assert rv_a.resels == rv_b.resels
        assert fwe_p(5.0, rv_a, T12) == fwe_p(5.0, rv_b, T12)

    def test_window_scales_top_curvature(self):
        # uniform smoothness: l_3 over a time window tracks the fraction
        # of complete components inside it
        dims = (14, 14, 40)
        space = build_lattice(dims, np.ones(int(np.prod(dims)), bool))
        res = self._smooth_residuals(dims, (4.0, 4.0, 4.0), 16, 22)
        lo, hi = 8, 27
        sub = restrict(space, time_window=(lo, hi))
        frac = (hi - lo) / (dims[2] - 1)  # complete cubes in window
        ratio = lkc_top(res, sub) / lkc_top(res, space)
        assert ratio == pytest.approx(frac, rel=0.10)

    def test_single_vertex_point_search(self):
        dims = (6, 6, 6)
        space = build_lattice(dims, np.ones(216, bool))
        keep = np.zeros(dims, dtype=bool)
        keep[3, 3, 3] = True
        sub = space.restricted(keep)
        assert sub.n_inside == 1
        assert intrinsic_volumes(sub).mu == (1.0, 0.0, 0.0, 0.0)
        # a point search reduces the corrected p to the plain tail
        for t in (2.5, 4.0):
            assert fwe_p(t, POINT, GAUSS) == pytest.approx(
                ec_density(GAUSS, 0, t), rel=1e-14)

    def test_empty_restriction_rejected(self):
        space = build_lattice((4, 4), np.ones(16, bool))
        with pytest.raises(ValueError, match="empty"):
            space.restricted(np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="window"):
            restrict(space, time_window=(9, 4))

    def test_mesh_restriction(self):
        from tests.test_lkc import unit_sheet_mesh
        from topostat import build_mesh
        verts, tris = unit_sheet_mesh(6, 6)
        mesh = build_mesh(verts, tris)
        keep = verts[:, 0] <= 2.0
        sub = mesh.restricted(keep)
        assert sub.n_inside == 18
        assert len(sub.simplices) < len(mesh.simplices)
        mu = intrinsic_volumes(sub)
        assert mu[0] == 1.0
        assert mu[2] == pytest.approx(10.0)  # 2 x 5 unit squares
