"""Periodic-box fields and their discrete Fourier representation.

The box is the d-dimensional torus [-P/2, P/2)^d sampled on a uniform
n^d lattice.  Forward transforms carry the 1/|box| normalization, so a
plain mode sum (no prefactor) reconstructs the field and Parseval reads

    (1/vol) * sum_x |w(x)|^2 * dx^d  ==  sum_k |w_hat(k)|^2 .

Derivatives of real fields run on the half lattice of the real-to-complex
transform (numpy's rfftn, unnormalized): shape (n, ..., n, n//2 + 1),
keeping only the modes 0 .. n/2 of the last axis.  The dropped modes are
complex conjugates of kept ones, so a sum over the full lattice equals the
half-lattice sum with each mode counted by its Hermitian multiplicity:
once on the last-axis 0 and n/2 planes (which are their own mirror
images), twice everywhere else.  PeriodicGrid builds the half-lattice
derivative, diffusion and dealias operators, the shell index and that
weight once, each contiguous (a broadcast operator multiplies up to twice
as slowly); rfft_block's pruned passes reach Orszag's two-thirds block alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicGrid",
    "Field",
    "SpectralField",
    "make_grid",
    "trig_terms",
    "dft_forward",
    "dft_inverse",
    "weighted_fields",
]

# a density sample down to -RHO_TOLERANCE is round-off of a nonnegative density
RHO_TOLERANCE = 1e-12


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform sampling of the periodic box [-P/2, P/2)^d.

    Parameters
    ----------
    d : int
        Spatial dimension, 1, 2 or 3.
    n : int
        Points per axis.  Must be even and at least 4 (powers of two are
        fastest but any even n is accepted).
    P : float
        Box edge length.

    Attributes set during construction
    ----------------------------------
    dx : float
        Lattice spacing P / n.
    vol : float
        Box volume P**d.
    shape : tuple of int
        Spatial array shape, (n,) * d.
    mode_norm, origin_phase : ndarray
        |mode| (Nyquist labelled +n/2) and the centered-phase DFT's factor
        (-1)^(sum of modes), on the full lattice.
    n_shells : int
        Number of integer shells round(|mode|), max over the lattice + 1.
    half_shape : tuple of int
        Half-lattice shape (n,) * (d - 1) + (n//2 + 1,) of rfft output.
    ik_half : ndarray
        i*k per axis on the half lattice, shape (d,) + half_shape, with the
        Nyquist mode zeroed, for odd-order spectral derivatives of real fields.
    k2_half : ndarray
        |k|^2 on the half lattice (Nyquist included), for diffusion.
    ik2_half : ndarray
        sum of |ik_half|^2 over the axes (Nyquist zeroed), for grad_sq.
    mode_norm_half : ndarray
        Euclidean length of the integer mode vector, half lattice.
    shell_half : ndarray
        Integer shell index round(|mode|) on the half lattice.
    dealias_half : ndarray of bool
        Two-thirds-rule mask, True where |mode| <= n//3 on every axis.
    dealias_modes : ndarray of intp
        Flat C-order indices of dealias_half's modes in half_shape, the
        order of the two-thirds block.
    parseval_weight : ndarray
        Hermitian multiplicity of each half-lattice mode along the last
        axis, broadcastable: 1 at last-axis modes 0 and n/2, 2 elsewhere.
    """

    d: int
    n: int
    P: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 4, got {self.n}")
        n, d, P = self.n, self.d, float(self.P)
        try:  # the box, its volume, the cell volume and the largest |k|^2
            sizes = (P, P**d, (P / n) ** d, d * (math.pi * n / P) ** 2)
        except (OverflowError, ZeroDivisionError):
            sizes = (math.nan,)
        if not all(0.0 < s < math.inf for s in sizes):
            raise ValueError(
                "box length must be positive, with a finite positive volume P^d, cell "
                f"volume (P/n)^d and largest |k|^2, got {P}"
            )
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "dx", P / n)
        object.__setattr__(self, "vol", P**d)
        object.__setattr__(self, "shape", (n,) * d)
        # rfft keeps last-axis modes 0 .. n/2, the first n//2 + 1 entries
        # of FFT storage order.
        h = n // 2 + 1
        object.__setattr__(self, "half_shape", self.shape[:-1] + (h,))

        def lattice(values, last):
            """values along each axis in turn, broadcastable; the last axis
            keeps its first `last` entries."""
            return [values[: last if axis == d - 1 else n].reshape((1,) * axis + (-1,) + (1,) * (d - 1 - axis))
                    for axis in range(d)]

        def squared_norm(vectors, shape):
            return sum((v.astype(np.float64) ** 2 for v in vectors), np.zeros(shape))

        modes_1d = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
        modes_1d[n // 2] = n // 2  # label the Nyquist mode +n/2
        modes, half_modes = lattice(modes_1d, n), lattice(modes_1d, h)
        k = (2.0 * np.pi / P) * modes_1d.astype(np.float64)
        k_deriv = k.copy()
        k_deriv[n // 2] = 0.0  # Nyquist is ambiguous under differentiation
        object.__setattr__(self, "ik_half", np.stack(np.broadcast_arrays(*lattice(1j * k_deriv, h))))
        object.__setattr__(self, "k2_half", squared_norm(lattice(k, h), self.half_shape))
        object.__setattr__(self, "ik2_half", sum(np.abs(v) ** 2 for v in self.ik_half))
        object.__setattr__(self, "mode_norm", np.sqrt(squared_norm(modes, self.shape)))
        object.__setattr__(self, "mode_norm_half", np.sqrt(squared_norm(half_modes, self.half_shape)))
        shell = np.rint(self.mode_norm_half).astype(np.int64)
        object.__setattr__(self, "shell_half", shell)
        object.__setattr__(self, "n_shells", int(shell.max()) + 1)  # |(n/2, ..., n/2)| is kept
        keep = np.ones(self.half_shape, dtype=bool)
        for m in half_modes:
            keep &= np.abs(m) <= n // 3
        object.__setattr__(self, "dealias_half", keep)
        object.__setattr__(self, "dealias_modes", np.flatnonzero(keep))
        weight = np.full(h, 2.0)
        weight[0] = weight[-1] = 1.0
        object.__setattr__(self, "parseval_weight", weight)

        # Samples start at -P/2, so mode phases pick up e^{-ik*x0} = (-1)^mode
        # per axis relative to the raw FFT.  The factor is its own inverse.
        phase = np.ones(self.shape)
        for m in modes:
            phase = phase * np.where(m % 2 == 0, 1.0, -1.0)
        object.__setattr__(self, "origin_phase", phase)

    def axes_coordinates(self):
        """Per-axis sample coordinates in [-P/2, P/2), broadcastable."""
        x0 = -0.5 * self.P + self.dx * np.arange(self.n)
        out = []
        for axis in range(self.d):
            sh = [1] * self.d
            sh[axis] = self.n
            out.append(x0.reshape(sh))
        return out

    def spatial_axes(self):
        return tuple(range(-self.d, 0))

    def trig_sum(self, terms, components: int):
        """Samples of sum_terms amps * cos(k.x + phase), k = (2 pi / P) * mode,
        over (amps, mode, phase) terms with one amplitude per component,
        shape (components,) + shape, and their spatial derivatives, shape
        (components, d) + shape."""
        space = np.zeros((components,) + self.shape)
        grad = np.zeros((components, self.d) + self.shape)
        for amps, mode_vec, phase in trig_terms(terms, components, self.d):
            kvec, c, s = self.trig_mode(mode_vec, phase)
            for comp in range(components):
                space[comp] += amps[comp] * c
                for axis in range(self.d):
                    grad[comp, axis] += -amps[comp] * kvec[axis] * s
        return space, grad

    def trig_mode(self, mode_vec, phase: float) -> tuple:
        """k = (2 pi / P) * mode as a list, and the samples of cos(k.x + phase)
        and sin(k.x + phase), each of shape grid.shape."""
        kvec = [2.0 * np.pi / self.P * v for v in mode_vec]
        arg = sum((k * x for k, x in zip(kvec, self.axes_coordinates())), np.full(self.shape, float(phase)))
        return kvec, np.cos(arg), np.sin(arg)

    def dealiased_terms(self, terms) -> tuple:
        """terms, if every mode lies within the two-thirds cutoff, |mode_a| <=
        n//3 on each axis: a dealiased product silently drops any other."""
        for _, mode_vec, _ in terms:
            if max(abs(v) for v in mode_vec) > self.n // 3:
                raise ValueError(f"forcing mode {tuple(mode_vec)} is past the two-thirds cutoff n//3 = {self.n // 3}")
        return terms

    def trig_shift(self, terms, components: int, scratch: np.ndarray = None, modes: np.ndarray = None):
        """rfft(w) -> rfft(w * trig_sum(terms, components)[0]) on the dealiased
        modes, or on modes (flat indices in half_shape) if given, exact for the
        grid product, aliasing included.  Returns (targets, shift): the modes'
        flat indices in a (components,) + half_shape array, and the map.  The
        map's buffers are made once, so its result lasts until its next call;
        they live in scratch, a contiguous complex array left alone while the
        result is used, if it is large enough.  On x_j = -P/2 + j*dx a term is
        amps * cos(2 pi mode.j/n + phase - pi*sum(mode)): it moves rfft(w) by
        -+mode with weights amps * (-1)^sum(mode) * e^{+-i phase} / 2.  Sources
        past the last axis's n/2 are conjugates of their Hermitian mirrors.
        """
        modes = self.dealias_modes if modes is None else modes
        lattice = np.unravel_index(modes, self.half_shape)
        index, mirrored, weight = [], [], []
        for amps, mode_vec, phase in terms:
            parity = -1.0 if sum(mode_vec) % 2 else 1.0
            for sign in (1, -1):
                src = [(q - sign * v) % self.n for q, v in zip(lattice, mode_vec)]
                mirror = src[-1] > self.n // 2
                index.append(np.ravel_multi_index([np.where(mirror, -q % self.n, q) for q in src], self.half_shape))
                mirrored.append(mirror)
                weight.append(np.multiply(amps, 0.5 * parity * np.exp(sign * 1j * phase)))
        index = np.array(index, dtype=np.intp).reshape(-1, modes.size)
        mirrored = np.array(mirrored, dtype=bool).reshape(index.shape)
        weight = np.array(weight, dtype=np.complex128).reshape(-1, components).T
        need = index.size + components * modes.size
        pool = scratch.reshape(-1) if scratch is not None and scratch.size >= need else np.empty(need, np.complex128)
        values, moved = pool[: index.size].reshape(index.shape), pool[index.size : need].reshape(components, -1)

        def shift(coef):
            np.take(coef.ravel(), index, out=values, mode="clip")  # "clip" writes out unbuffered
            np.conjugate(values, out=values, where=mirrored)
            return np.matmul(weight, values, out=moved).ravel()

        return (self.dealias_half.size * np.arange(components)[:, None] + modes).ravel(), shift

    def rfft(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Unnormalized real-to-complex transform over the spatial axes;
        leading axes are batched.  out, if given, takes the result."""
        return np.fft.rfftn(values, axes=self.spatial_axes(), out=out)

    def rfft_block(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rfft(values) into out, bit for bit on the two-thirds block: rfftn's
        passes, its complex ones only on the lines that reach the block.  out's
        other modes hold partial sums, for dealias to zero."""
        rows = (slice(self.n // 3 + 1), slice(self.n - self.n // 3, None))  # |mode| <= n//3
        lines = [np.fft.rfft(values, axis=-1, out=out)[..., rows[0]]]
        for axis in range(-2, -self.d - 1, -1):
            lines = [np.fft.fft(v, axis=axis, out=v) for v in lines]
            lines = [v[(..., r) + (slice(None),) * (-1 - axis)] for v in lines for r in rows]
        return out

    def dealias(self, coef: np.ndarray):
        """coef *= dealias_half, by zeroing (to +0) the slabs outside the block."""
        coef[..., self.n // 3 + 1 :] = 0
        for axis in range(-2, -self.d - 1, -1):
            coef[(..., slice(self.n // 3 + 1, self.n - self.n // 3)) + (slice(None),) * (-1 - axis)] = 0

    def irfft(self, coef: np.ndarray, out: np.ndarray = None, scratch: np.ndarray = None) -> np.ndarray:
        """Inverse of rfft, back to real samples of grid.shape, into out if
        given: irfftn's passes, a complex inverse over each leading spatial
        axis in turn, then the real inverse over the last.  scratch, shaped
        like coef, takes the complex passes if given; coef is left alone."""
        axes = self.spatial_axes()
        for axis in axes[:-1]:
            coef = np.fft.ifft(coef, axis=axis, out=scratch)
        return np.fft.irfft(coef, self.n, axis=axes[-1], out=out)

    def parseval(self, power: np.ndarray) -> float:
        """Box integral of sum |w|^2 from the half-lattice power |rfft(w)|^2
        (any leading component axes are summed too)."""
        total = float(np.sum(self.parseval_weight * power))
        return total * self.dx**self.d / float(self.n**self.d)

    def grad_sq(self, coef: np.ndarray) -> float:
        """Box integral of |grad w|^2 (summed over any leading component axes)
        from coef = rfft(w), the derivatives' Nyquist modes zeroed as in ik_half."""
        return self.parseval(self.ik2_half * (coef.real**2 + coef.imag**2))


def trig_terms(terms, components: int = None, d: int = None) -> tuple:
    """(amps, mode, phase) terms as (float tuple, int tuple, float), the
    form PeriodicGrid.trig_sum samples, with finite amplitudes and phase;
    given components and d, each term must carry that many amplitudes and
    mode entries."""
    terms = tuple(
        (tuple(float(a) for a in amps), tuple(int(v) for v in mode_vec), float(phase))
        for amps, mode_vec, phase in terms
    )
    for amps, _, phase in terms:
        if not all(map(math.isfinite, (*amps, phase))):
            raise ValueError(f"term amplitudes and phase must be finite, got {amps} and {phase}")
    if components is not None and any(len(a) != components or len(k) != d for a, k, _ in terms):
        raise ValueError(f"term shape does not match {components} components on a {d}-D grid")
    return terms


def make_grid(d: int, n: int, P: float) -> PeriodicGrid:
    """Construct a PeriodicGrid, validating d, n and P."""
    return PeriodicGrid(d=d, n=n, P=P)


def _check_component_shape(grid: PeriodicGrid, values: np.ndarray) -> int:
    if values.shape == grid.shape:
        return 1
    if values.ndim == grid.d + 1 and values.shape[1:] == grid.shape and values.shape[0] >= 1:
        return values.shape[0]
    raise ValueError(
        f"values shape {values.shape} does not match grid shape {grid.shape} "
        "(scalar) or (components,) + grid shape"
    )


@dataclass(frozen=True)
class Field:
    """Real-valued sampled field, scalar or multi-component.

    Scalar fields store shape grid.shape, multi-component fields
    (components,) + grid.shape.  Values are copied, C-ordered whatever
    their source, and frozen; fields are immutable once built.  The solver
    alone builds fields on its own fresh arrays without a copy (_adopt).
    """

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.values, dtype=np.float64, copy=True, order="C"))

    def _freeze(self, vals):
        c = _check_component_shape(self.grid, vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "components", c)

    @classmethod
    def _adopt(cls, grid: PeriodicGrid, values: np.ndarray) -> "Field":
        """A Field whose samples are values itself, frozen in place: a fresh
        float64 C-ordered array that its maker only reads from then on."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        field._freeze(values)
        return field

    @property
    def is_scalar(self) -> bool:
        return self.components == 1


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a Field on the full integer mode lattice.

    Coefficients follow the grid's FFT storage order and the 1/vol
    forward normalization, so coefficients are mode amplitudes.
    """

    grid: PeriodicGrid
    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=np.complex128, copy=True)
        c = _check_component_shape(self.grid, coef)
        if not np.all(np.isfinite(coef)):
            raise ValueError("spectral coefficients must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "components", c)


def dft_forward(f: Field) -> SpectralField:
    """Forward transform with amplitude normalization 1/n^d.

    A single mode A*cos(k.x) maps to coefficients A/2 at +/-k.
    """
    axes = f.grid.spatial_axes()
    coef = np.fft.fftn(f.values, axes=axes) / float(f.grid.n**f.grid.d)
    return SpectralField(grid=f.grid, coefficients=coef * f.grid.origin_phase)


def dft_inverse(s: SpectralField) -> Field:
    """Mode sum back to samples; rejects coefficients that are not the
    transform of a real field (relative imaginary residual > 1e-10)."""
    axes = s.grid.spatial_axes()
    w = np.fft.ifftn(s.coefficients * s.grid.origin_phase, axes=axes) * float(s.grid.n**s.grid.d)
    re, im = np.real(w), np.imag(w)
    scale = max(float(np.max(np.abs(re))), 1e-300)
    worst = float(np.max(np.abs(im)))
    if worst > 1e-10 * scale:
        raise ValueError(
            f"inverse transform is not real: imaginary residual {worst:.3e} "
            f"exceeds 1.0e-10 of field scale {scale:.3e}"
        )
    return Field(grid=s.grid, values=re)


def check_closure(gamma: float, kappa: float) -> None:
    """Reject barotropic closure constants other than finite gamma > 1 and
    kappa > 0 (NaN included): the one rule of FluidParams and
    weighted_fields."""
    if not (1 < gamma < math.inf):
        raise ValueError(f"gamma must exceed 1 and be finite, got {gamma}")
    if not (0 < kappa < math.inf):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")


def weighted_fields(
    rho: Field,
    m: Field,
    gamma: float,
    kappa: float,
    rho_min: float = 1e-10,
) -> Field:
    """Energy-weighted bundle w = (sqrt(rho)*u, sqrt(rho)*c).

    Velocity is m / max(rho, rho_min) and the sonic weight uses
    c^2 = p/rho = kappa*rho^(gamma-1), so componentwise

        w_u = sqrt(rho) * m / max(rho, rho_min),
        w_c = sqrt(kappa) * rho^(gamma/2).

    Where rho >= rho_min, w_u = m / sqrt(rho) = sqrt(rho) * u, and
    0.5*|w_u|^2 + |w_c|^2/(gamma-1) equals the pointwise total energy
    density.  Below the floor w_u = sqrt(rho) * m / rho_min instead.
    Returns a Field with d + 1 components, w_u first.
    """
    check_closure(gamma, kappa)
    if rho.grid is not m.grid and rho.grid != m.grid:
        raise ValueError("rho and m live on different grids")
    if not rho.is_scalar or m.components != rho.grid.d:
        raise ValueError("expected scalar rho and d-component m")
    r = rho.values
    if float(np.min(r)) < -RHO_TOLERANCE:
        raise ValueError(f"density has negative values beyond tolerance: min {np.min(r):.3e}")
    r = np.maximum(r, 0.0)
    denom = np.maximum(r, rho_min)
    w = np.empty((rho.grid.d + 1,) + rho.grid.shape)
    w[: rho.grid.d] = np.sqrt(r) * m.values / denom
    w[rho.grid.d] = math.sqrt(kappa) * r ** (0.5 * gamma)
    return Field(grid=rho.grid, values=w)
