"""Grid construction, transforms, the lattice-shift and L^p rules of the
moduli and distances, and the weighted bundle."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from baroflow.diagnostics import space_modulus, spacetime_lp
from baroflow.fields import (
    Field,
    SpectralField,
    dft_forward,
    dft_inverse,
    make_grid,
    weighted_fields,
)
from baroflow.solver import FluidParams, SnapshotSeries, State

TWO_PI = 2.0 * np.pi


def dft_direct(values, grid):
    """Direct summation oracle: w_hat(k) = (1/n^d) sum_x w(x) e^{-ik.x}.

    Built from explicit per-axis phase matrices, no FFT library involved.
    """
    n, d = grid.n, grid.d
    x = -0.5 * grid.P + grid.dx * np.arange(n)
    k = (TWO_PI / grid.P) * np.fft.fftfreq(n, 1.0 / n)
    phase = np.exp(-1j * np.outer(k, x))  # (mode, sample)
    out = np.asarray(values, dtype=np.complex128)
    for axis in range(d):
        out = np.moveaxis(np.tensordot(phase, out, axes=([1], [axis])), 0, axis)
    return out / n**d


def random_field(grid, rng, components=1):
    shape = grid.shape if components == 1 else (components,) + grid.shape
    return Field(grid=grid, values=rng.standard_normal(shape))


def shift_modulus(grid, m, shift):
    """space_modulus's momentum channel, int |m(x + dx*shift) - m(x)|^2 dx,
    of a static unit-density momentum m held over t in [0, 1]."""
    rho = Field(grid=grid, values=np.ones(grid.shape))
    mf = Field(grid=grid, values=m)
    series = SnapshotSeries(states=(State(t=0.0, rho=rho, m=mf), State(t=1.0, rho=rho, m=mf)))
    return space_modulus(series, FluidParams(), [shift]).momentum[0]


class TestFieldCopies:
    def test_a_field_copies_a_writable_array_and_a_read_only_view(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        source = np.ones(grid.shape)
        view = source.view()
        view.setflags(write=False)
        fields = [Field(grid=grid, values=given) for given in (source, view)]
        source[:] = 2.0
        for f in fields:
            assert not np.shares_memory(f.values, source)
            assert not f.values.flags.writeable
            assert np.all(f.values == 1.0)


class TestMakeGrid:
    def test_basic_attributes(self):
        """(1, 8, 2*pi) gives dx = pi/4, integer modes -3..4 on the full
        lattice (Nyquist labelled +4) and 0..4 on the half lattice."""
        g = make_grid(1, 8, TWO_PI)
        assert g.dx == pytest.approx(np.pi / 4, rel=0, abs=0)
        assert sorted(g.mode_norm.tolist()) == [0, 1, 1, 2, 2, 3, 3, 4]
        assert g.origin_phase.tolist() == [(-1.0) ** m for m in (0, 1, 2, 3, 4, -3, -2, -1)]
        assert g.half_shape == (5,) and g.mode_norm_half.tolist() == [0, 1, 2, 3, 4]

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(2, 5, 1.0)

    def test_even_non_power_of_two_accepted(self):
        g = make_grid(2, 6, 1.0)
        assert g.shape == (6, 6)

    def test_bad_dimension_and_box(self):
        with pytest.raises(ValueError, match="dimension"):
            make_grid(4, 8, 1.0)
        with pytest.raises(ValueError, match="positive"):
            make_grid(2, 8, -1.0)

    def test_mode_set_symmetric_under_negation(self):
        """|mode| is the same at every mode's negation, identifying +/- Nyquist."""
        for d, n in ((1, 4), (1, 6), (2, 8), (3, 12)):
            g = make_grid(d, n, 1.0)
            negated = g.mode_norm
            for axis in range(d):
                negated = np.roll(np.flip(negated, axis=axis), 1, axis=axis)
            assert np.array_equal(negated, g.mode_norm)

    def test_dealias_mask_cut(self):
        g = make_grid(1, 12, TWO_PI)
        assert np.flatnonzero(g.dealias_half).tolist() == [0, 1, 2, 3, 4]


class TestHalfLattice:
    def test_a_fresh_grid_holds_no_operator_until_one_is_read(self):
        g = make_grid(3, 32, TWO_PI)
        assert [name for name, v in vars(g).items() if isinstance(v, np.ndarray)] == []
        ik2 = g.ik2_half  # built from ik_half, which it builds too
        assert sorted(name for name, v in vars(g).items() if isinstance(v, np.ndarray)) == ["ik2_half", "ik_half"]
        assert g.ik2_half is ik2 and g == make_grid(3, 32, TWO_PI)

    def test_weighted_parseval_matches_full_lattice(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            for n in (4, 6, 16):
                g = make_grid(d, n, TWO_PI)
                w = rng.standard_normal((2,) + g.shape)
                full = float(np.sum(np.abs(np.fft.fftn(w, axes=g.spatial_axes())) ** 2))
                half = float(np.sum(g.parseval_weight * np.abs(g.rfft(w)) ** 2))
                assert abs(half - full) <= 1e-13 * full
                quad = float(np.sum(w**2)) * g.dx**d
                assert g.parseval(np.abs(g.rfft(w)) ** 2) == pytest.approx(quad, rel=1e-13)

    @pytest.mark.parametrize("P", [TWO_PI, 1.7])
    @pytest.mark.parametrize("n", [4, 6, 18, 32])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_operators_are_the_full_lattice_formulas(self, full_lattice, d, n, P):
        """Each half-lattice operator is its full-lattice formula on rfft's
        last-axis modes 0 .. n/2, the first h entries of FFT order, bit for
        bit and in dtype; mode_norm and origin_phase are the formulas."""
        g = make_grid(d, n, P)
        ref, h = full_lattice(g), n // 2 + 1
        assert g.half_shape == g.shape[:-1] + (h,)

        def half(values):
            return np.broadcast_to(values, g.shape)[..., :h]

        multiplicity = np.where(np.arange(h) == -np.arange(h) % n, 1.0, 2.0)
        pairs = [
            (g.k2_half, half(ref.k2)),
            (g.ik2_half, half(sum(np.abs(ik) ** 2 for ik in ref.ik))),
            (g.mode_norm_half, half(ref.mode_norm)),
            (g.shell_half, np.rint(half(ref.mode_norm)).astype(np.int64)),
            (g.dealias_half, half(ref.dealias)),
            (g.parseval_weight, multiplicity),
            (g.mode_norm, ref.mode_norm),
            (g.origin_phase, ref.origin_phase),
        ]
        pairs += [(np.broadcast_to(op, g.half_shape), half(ik)) for op, ik in zip(g.ik_half, ref.ik, strict=True)]
        for got, want in pairs:
            got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert g.n_shells == int(np.rint(np.max(ref.mode_norm))) + 1

    def test_operators_match_full_lattice(self, full_lattice):
        """Mask, ik and k2 act on a real field exactly as the full-lattice
        operators do on its complex transform."""
        rng = np.random.default_rng(9)
        for d in (1, 2, 3):
            for n in (4, 6, 16):
                g = make_grid(d, n, TWO_PI)
                ref = full_lattice(g)
                f = rng.standard_normal(g.shape)
                f_full, f_half = np.fft.fftn(f), g.rfft(f)
                ops = [(ref.dealias, g.dealias_half), (ref.k2, g.k2_half)]
                ops += list(zip(ref.ik, g.ik_half))
                for full_op, half_op in ops:
                    want = np.real(np.fft.ifftn(full_op * f_full))
                    got = g.irfft(half_op * f_half)
                    assert float(np.max(np.abs(got - want))) <= 1e-12 * max(float(np.max(np.abs(want))), 1.0)


class TestTransforms:
    def test_single_cosine_amplitudes(self, full_lattice):
        """cos(2*pi x / P) carries coefficient 1/2 at modes +1 and -1."""
        g = make_grid(1, 32, 3.0)
        (x,) = g.axes_coordinates()
        f = Field(grid=g, values=np.cos(TWO_PI * x / g.P))
        coef = dft_forward(f).coefficients
        idx = {int(m): i for i, m in enumerate(full_lattice(g).modes[0])}
        assert coef[idx[1]] == pytest.approx(0.5, abs=1e-13)
        assert coef[idx[-1]] == pytest.approx(0.5, abs=1e-13)
        others = [c for i, c in enumerate(coef) if i not in (idx[1], idx[-1])]
        assert np.max(np.abs(others)) < 1e-13

    def test_constant_field_concentrates_at_zero(self):
        g = make_grid(2, 8, 1.7)
        coef = dft_forward(Field(grid=g, values=np.full(g.shape, 3.0))).coefficients
        assert coef[0, 0] == pytest.approx(3.0)
        coef = coef.copy()
        coef[0, 0] = 0.0
        assert np.max(np.abs(coef)) < 1e-14

    def test_matches_direct_summation(self):
        """FFT equals the O(n^2) phase-matrix oracle on every dimension."""
        rng = np.random.default_rng(7)
        for d, n in ((1, 16), (2, 8), (3, 6)):
            g = make_grid(d, n, 2.5)
            f = random_field(g, rng)
            got = dft_forward(f).coefficients
            want = dft_direct(f.values, g)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for d, n in ((1, 32), (2, 16), (3, 8)):
            g = make_grid(d, n, TWO_PI)
            f = random_field(g, rng, components=d)
            back = dft_inverse(dft_forward(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_parseval(self):
        """Per-volume L2 energy equals the coefficient sum of squares."""
        rng = np.random.default_rng(13)
        for d, n, P in ((1, 64, 1.0), (2, 24, 5.0), (3, 12, TWO_PI)):
            g = make_grid(d, n, P)
            f = random_field(g, rng)
            physical = spacetime_lp(g, [(1.0 / g.vol, f.values)], (2.0,))[0]
            spectral = float(np.sum(np.abs(dft_forward(f).coefficients) ** 2))
            assert physical == pytest.approx(spectral, rel=1e-12)

    def test_hermitian_symmetry_of_real_fields(self):
        g = make_grid(2, 8, 1.0)
        f = random_field(g, np.random.default_rng(3))
        c = dft_forward(f).coefficients
        for i in range(g.n):
            for j in range(g.n):
                assert c[i, j] == pytest.approx(np.conj(c[-i % g.n, -j % g.n]), abs=1e-14)

    def test_inverse_rejects_non_hermitian(self):
        g = make_grid(1, 8, 1.0)
        coef = np.zeros(8, dtype=complex)
        coef[1] = 1.0  # no conjugate partner at -1
        with pytest.raises(ValueError, match="imaginary residual"):
            dft_inverse(SpectralField(grid=g, coefficients=coef))

    def test_forward_rejects_non_finite(self):
        g = make_grid(1, 8, 1.0)
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(grid=g, values=bad)


class TestBlockTransform:
    """The stepper's transforms, pruned to the lines that reach the
    two-thirds block, and the slab zeroing that dealiases."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_block_inverse_is_irfft_bit_for_bit(self, d, n, lead):
        g = make_grid(d, n, 1.3)
        rng = np.random.default_rng(n * d + len(lead))
        coef = rng.standard_normal(lead + g.half_shape) + 1j * rng.standard_normal(lead + g.half_shape)
        g.dealias(coef)
        want = g.irfft(coef)
        # the block in dealias_modes' order, compactly
        block = np.take(coef.reshape(lead + (-1,)), g.dealias_modes, axis=-1).reshape(lead + g.block_shape)
        scratch = np.full(lead + g.shape[:-1] + (n // 3 + 1,), np.nan, dtype=np.complex128)  # as a stepper's spare may be
        for _ in range(2):
            out = np.full(want.shape, np.nan)
            assert g.irfft_block(block, out=out, scratch=scratch) is out
            assert np.array_equal(out.view(np.int64), want.view(np.int64))
        assert np.array_equal(g.irfft_block(block).view(np.int64), want.view(np.int64))
        assert np.array_equal(block, np.take(coef.reshape(lead + (-1,)), g.dealias_modes, axis=-1).reshape(block.shape))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_block_transform_is_rfft_on_the_block_bit_for_bit(self, d, n, lead):
        g = make_grid(d, n, 1.3)
        values = np.random.default_rng(n + d).standard_normal(lead + g.shape)
        want = g.rfft(values)
        out = np.full(lead + g.half_shape, np.nan, dtype=np.complex128)
        assert g.rfft_block(values, out) is out
        block = np.broadcast_to(g.dealias_half, out.shape)
        assert np.array_equal(out[block].view(np.int64), want[block].view(np.int64))
        assert np.all(np.isfinite(out))  # partial sums everywhere else

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 6, 16])
    def test_slab_zeroing_equals_the_mask_multiply(self, d, n):
        g = make_grid(d, n, 1.3)
        rng = np.random.default_rng(n * d)
        coef = rng.standard_normal((2,) + g.half_shape) + 1j * rng.standard_normal((2,) + g.half_shape)
        want = coef * g.dealias_half
        g.dealias(coef)
        assert np.array_equal(coef, want)  # the multiply's zeros may be -0, the slabs' are +0
        assert not np.any(np.signbit(coef.view(np.float64)[np.broadcast_to(~g.dealias_half, coef.shape)
                                                           .repeat(2, axis=-1)]))


class TestShift:
    """Lattice shifts are exact index rolls inside space_modulus."""

    def test_zero_offset_identity(self):
        g = make_grid(2, 8, 1.0)
        f = random_field(g, np.random.default_rng(5), components=2)
        assert shift_modulus(g, f.values, 0) == 0.0

    def test_full_period_identity(self):
        g = make_grid(2, 8, 1.0)
        f = random_field(g, np.random.default_rng(6), components=2)
        assert shift_modulus(g, f.values, 8) == 0.0

    def test_half_period_negates_fundamental_cosine(self):
        g = make_grid(1, 16, TWO_PI)
        (x,) = g.axes_coordinates()
        f = np.cos(x)[None]
        want = float(np.sum((2.0 * f) ** 2)) * g.dx
        assert abs(shift_modulus(g, f, 8) - want) < 1e-15 * want

    def test_shift_matches_sampled_translation(self):
        g = make_grid(1, 16, 4.0)
        (x,) = g.axes_coordinates()
        f = np.sin(TWO_PI * x / g.P)[None]
        translated = np.sin(TWO_PI * (x + 3 * g.dx) / g.P)[None]
        want = float(np.sum((translated - f) ** 2)) * g.dx
        assert abs(shift_modulus(g, f, 3) - want) < 1e-14 * want


class TestLpNorm:
    """spacetime_lp on one time row of weight w: w * int |f|^p dx."""

    def test_constant_unit_field(self):
        """|1|_p is vol^(1/p) over the box and exactly 1 per unit volume."""
        g = make_grid(3, 6, 1.3)
        ones = np.ones(g.shape)
        per_volume = spacetime_lp(g, [(1.0 / g.vol, ones)], (3.0,))[0] ** (1.0 / 3.0)
        assert per_volume == pytest.approx(1.0, rel=1e-15)
        assert spacetime_lp(g, [(1.0, ones)], (2.0,))[0] ** 0.5 == pytest.approx(g.vol**0.5, rel=1e-14)

    def test_cosine_l2_closed_form(self):
        """On P = 2*pi the L2 norm of cos(x) is sqrt(pi)."""
        g = make_grid(1, 64, TWO_PI)
        (x,) = g.axes_coordinates()
        l2 = spacetime_lp(g, [(1.0, np.cos(x))], (2.0,))[0] ** 0.5
        assert l2 == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_vector_magnitude_convention(self):
        g = make_grid(2, 8, 1.0)
        v = np.zeros((2,) + g.shape)
        v[0], v[1] = 3.0, 4.0
        assert spacetime_lp(g, [(1.0 / g.vol, v)], (2.0,))[0] ** 0.5 == pytest.approx(5.0, rel=1e-15)


class TestWeightedFields:
    def test_uniform_state_hand_values(self):
        """rho=4, m=(4,0,0), kappa=1, gamma=2: w_u=(2,0,0), sonic part 4."""
        g = make_grid(3, 4, 1.0)
        rho = Field(grid=g, values=np.full(g.shape, 4.0))
        mvals = np.zeros((3,) + g.shape)
        mvals[0] = 4.0
        m = Field(grid=g, values=mvals)
        w = weighted_fields(rho, m, gamma=2.0, kappa=1.0)
        assert w.components == 4
        assert np.allclose(w.values[0], 2.0)
        assert np.allclose(w.values[1:3], 0.0)
        assert np.allclose(w.values[3], 4.0)

    def test_vacuum_region_maps_to_zero(self):
        g = make_grid(1, 8, 1.0)
        r = np.ones(8)
        r[2:4] = 0.0
        mv = np.ones((1,) + g.shape)
        mv[0, 2:4] = 0.0
        w = weighted_fields(Field(grid=g, values=r), Field(grid=g, values=mv), 1.4, 1.0)
        assert np.all(w.values[:, 2:4] == 0.0)

    def test_energy_identity(self):
        """0.5|w_u|^2 + |w_c|^2/(gamma-1) is the total energy density."""
        rng = np.random.default_rng(21)
        for d in (1, 2, 3):
            g = make_grid(d, 8, 1.0)
            r = 0.5 + rng.random(g.shape)
            mv = rng.standard_normal((d,) + g.shape)
            gamma, kappa = 1.4, 2.0
            w = weighted_fields(Field(grid=g, values=r), Field(grid=g, values=mv), gamma, kappa)
            dens = 0.5 * np.sum(w.values[:d] ** 2, axis=0) + w.values[d] ** 2 / (gamma - 1)
            expect = 0.5 * np.sum(mv**2, axis=0) / r + kappa * r**gamma / (gamma - 1)
            assert np.max(np.abs(dens - expect)) < 1e-10 * np.max(expect)

    def test_one_call_traces_under_its_result_and_a_half_to_the_formulas_bits(self):
        # 3D 32^3: the result is 1.0 MiB; the copying build traced 3.0 MiB
        g = make_grid(3, 32, TWO_PI)
        rng = np.random.default_rng(4)
        r = 0.5 + rng.random(g.shape)
        r[0, 0, :4] = (0.0, 1e-12, -1e-13, 1e-11)  # floored and clipped densities too
        mv = rng.standard_normal((3,) + g.shape)
        rho, m = Field(grid=g, values=r), Field(grid=g, values=mv)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            w = weighted_fields(rho, m, 1.4, 2.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        r = np.maximum(r, 0.0)
        want = np.concatenate((np.sqrt(r) * mv / np.maximum(r, 1e-10), (math.sqrt(2.0) * r ** 0.7)[None]))
        assert w.values.tobytes() == want.tobytes() and not w.values.flags.writeable
        assert w.values.nbytes == 2**20 and peak <= 1.6 * 2**20

    def test_negative_density_rejected(self):
        g = make_grid(1, 8, 1.0)
        r = np.ones(8)
        r[0] = -1e-6
        m = Field(grid=g, values=np.zeros((1, 8)))
        with pytest.raises(ValueError, match="negative"):
            weighted_fields(Field(grid=g, values=r), m, 1.4, 1.0)

    def test_immutability(self):
        g = make_grid(1, 8, 1.0)
        f = Field(grid=g, values=np.ones(8))
        with pytest.raises(ValueError):
            f.values[0] = 2.0
