"""The benchmark's kernels, written against the public eDSL.

Seven kernel families: the paper's SAXPY (Fig. 4) and a blocked MMM
(Fig. 5), the 32/16/8/4-bit dot products of the variable-precision
case study (Section 4) and one scalar-only loop.  Every kernel uses
only AVX, AVX2, FMA and F16C intrinsics (the paper's Haswell ISAs), so
the generated code, its flags and the disk-cache keys are the same on
every x86 host that can run the benchmark.

Each family has a staging function, an input generator driven by a
``numpy.random.Generator`` and a NumPy reference.  Reductions end in a
scratch ``out`` array summed by staged scalar code, so no SSE-only
extract intrinsic is needed; the 8/4-bit dots return the exact int32
sum of products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.isa import registry
from repro.lms import forloop
from repro.lms.ops import Variable, array_apply, array_update, reflect_mutable
from repro.lms.types import FLOAT, INT8, INT16, INT32, array_of

ISAS = ("AVX", "AVX2", "FMA", "FP16C")

# Float tolerance against the float64 NumPy reference: the kernels use
# explicit FMA and a fixed lane-order reduction, so they differ from the
# reference by rounding only.  Relative to the sum of |terms|.
FLOAT_RTOL = 1e-5


def load():
    """The intrinsics namespace (looked up on the module at call time,
    so a traced run sees the call)."""
    return registry.load_isas(*ISAS)


def _lane_sum(out) -> Any:
    total = array_apply(out, 0)
    for lane in range(1, 8):
        total = total + array_apply(out, lane)
    return total


# ---------------------------------------------------------------------------
# Staging functions: ``(arg_types, fn)`` per family.

def _saxpy(cir):
    def saxpy(a, b, s, n):
        reflect_mutable(a)
        n0 = (n >> 3) << 3
        vs = cir._mm256_set1_ps(s)

        def body(i):
            va = cir._mm256_loadu_ps(a, i)
            vb = cir._mm256_loadu_ps(b, i)
            cir._mm256_storeu_ps(a, cir._mm256_fmadd_ps(vb, vs, va), i)

        forloop(0, n0, step=8, body=body)
        forloop(n0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) + array_apply(b, i) * s))

    return [array_of(FLOAT), array_of(FLOAT), FLOAT, INT32], saxpy


def _mmm(cir):
    # c += a @ b for n x n row-major matrices, n a multiple of 8: one
    # 8-wide accumulator per (row, column block), k unrolled by 8.
    def mmm(a, b, c, n):
        reflect_mutable(c)

        def row(i):
            def col_block(jj):
                acc = Variable(cir._mm256_loadu_ps(c, i * n + jj))

                def k_block(kk):
                    for u in range(8):
                        va = cir._mm256_set1_ps(
                            array_apply(a, i * n + kk + u))
                        vb = cir._mm256_loadu_ps(b, (kk + u) * n + jj)
                        acc.set(cir._mm256_fmadd_ps(va, vb, acc.get()))

                forloop(0, n, step=8, body=k_block)
                cir._mm256_storeu_ps(c, acc.get(), i * n + jj)

            forloop(0, n, step=8, body=col_block)

        forloop(0, n, step=1, body=row)

    return [array_of(FLOAT), array_of(FLOAT), array_of(FLOAT), INT32], mmm


def _dot32(cir):
    def dot32(a, b, out, n):
        reflect_mutable(out)
        acc = Variable(cir._mm256_setzero_ps())

        def body(i):
            part = cir._mm256_mul_ps(cir._mm256_loadu_ps(a, i),
                                     cir._mm256_loadu_ps(b, i))
            for u in range(1, 4):
                part = cir._mm256_fmadd_ps(cir._mm256_loadu_ps(a, i + 8 * u),
                                           cir._mm256_loadu_ps(b, i + 8 * u),
                                           part)
            acc.set(cir._mm256_add_ps(acc.get(), part))

        forloop(0, n, step=32, body=body)
        cir._mm256_storeu_ps(out, acc.get(), 0)
        return _lane_sum(out)

    return [array_of(FLOAT), array_of(FLOAT), array_of(FLOAT), INT32], dot32


def _dot16(cir):
    # fp16 storage (raw int16 bits), fp32 math through F16C.
    def dot16(a, b, out, n):
        reflect_mutable(out)
        acc = Variable(cir._mm256_setzero_ps())

        def body(i):
            part = None
            for u in range(2):
                ha = cir._mm256_loadu_si256(a, i + 16 * u)
                hb = cir._mm256_loadu_si256(b, i + 16 * u)
                for half in range(2):
                    va = cir._mm256_cvtph_ps(
                        cir._mm256_extracti128_si256(ha, half))
                    vb = cir._mm256_cvtph_ps(
                        cir._mm256_extracti128_si256(hb, half))
                    part = cir._mm256_mul_ps(va, vb) if part is None \
                        else cir._mm256_fmadd_ps(va, vb, part)
            acc.set(cir._mm256_add_ps(acc.get(), part))

        forloop(0, n, step=32, body=body)
        cir._mm256_storeu_ps(out, acc.get(), 0)
        return _lane_sum(out)

    return [array_of(INT16), array_of(INT16), array_of(FLOAT), INT32], dot16


def _dot8(cir):
    # int8 two's complement in [-127, 127]: abs/sign + maddubs + madd.
    def dot8(a, b, out, n):
        reflect_mutable(out)
        acc = Variable(cir._mm256_setzero_si256())
        ones = cir._mm256_set1_epi16(1)

        def body(i):
            va = cir._mm256_loadu_si256(a, i)
            vb = cir._mm256_loadu_si256(b, i)
            p16 = cir._mm256_maddubs_epi16(cir._mm256_abs_epi8(va),
                                           cir._mm256_sign_epi8(vb, va))
            acc.set(cir._mm256_add_epi32(
                acc.get(), cir._mm256_madd_epi16(p16, ones)))

        forloop(0, n, step=32, body=body)
        cir._mm256_storeu_si256(out, acc.get(), 0)
        return _lane_sum(out)

    return [array_of(INT8), array_of(INT8), array_of(INT32), INT32], dot8


def _dot4(cir):
    # 4-bit sign-magnitude codes, two per byte (low nibble first);
    # ``n`` counts values, a multiple of 64.
    def dot4(a, b, out, n):
        reflect_mutable(out)
        acc = Variable(cir._mm256_setzero_si256())
        m0f = cir._mm256_set1_epi8(0x0F)
        m07 = cir._mm256_set1_epi8(0x07)
        m08 = cir._mm256_set1_epi8(0x08)
        ones = cir._mm256_set1_epi16(1)

        def body(ib):
            va = cir._mm256_loadu_si256(a, ib)
            vb = cir._mm256_loadu_si256(b, ib)
            for nib in range(2):
                if nib == 0:
                    na = cir._mm256_and_si256(va, m0f)
                    nb = cir._mm256_and_si256(vb, m0f)
                else:
                    na = cir._mm256_and_si256(cir._mm256_srli_epi16(va, 4),
                                              m0f)
                    nb = cir._mm256_and_si256(cir._mm256_srli_epi16(vb, 4),
                                              m0f)
                neg = cir._mm256_cmpeq_epi8(
                    cir._mm256_and_si256(cir._mm256_xor_si256(na, nb), m08),
                    m08)
                mag_b = cir._mm256_and_si256(nb, m07)
                signed_b = cir._mm256_sub_epi8(
                    cir._mm256_xor_si256(mag_b, neg), neg)
                p16 = cir._mm256_maddubs_epi16(
                    cir._mm256_and_si256(na, m07), signed_b)
                acc.set(cir._mm256_add_epi32(
                    acc.get(), cir._mm256_madd_epi16(p16, ones)))

        forloop(0, n >> 1, step=32, body=body)
        cir._mm256_storeu_si256(out, acc.get(), 0)
        return _lane_sum(out)

    return [array_of(INT8), array_of(INT8), array_of(INT32), INT32], dot4


def _scalar(cir):
    # No intrinsics: int32 arithmetic with two's complement wraparound.
    def mix(a, b, k, n):
        reflect_mutable(a)
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * k + (array_apply(b, i) >> 2)
            - (array_apply(a, i) & 7)))

    return [array_of(INT32), array_of(INT32), INT32, INT32], mix


# ---------------------------------------------------------------------------
# Inputs and references.  ``size`` is the element count (the matrix side
# for MMM); ``align`` is the granularity sizes are rounded to.

def _f32(rng, n):
    return rng.uniform(-1.0, 1.0, n).astype(np.float32)


def _saxpy_args(rng, n):
    return [_f32(rng, n), _f32(rng, n), np.float32(rng.uniform(-2, 2)), n]


def _saxpy_ref(args):
    a, b, s, n = args
    return None, [a.astype(np.float64) + b.astype(np.float64) * float(s)]


def _mmm_args(rng, n):
    return [_f32(rng, n * n), _f32(rng, n * n), _f32(rng, n * n), n]


def _mmm_ref(args):
    a, b, c, n = args
    a64 = a.astype(np.float64).reshape(n, n)
    b64 = b.astype(np.float64).reshape(n, n)
    return None, [None, None, (c.astype(np.float64).reshape(n, n)
                               + a64 @ b64).ravel()]


def _dot32_args(rng, n):
    return [_f32(rng, n), _f32(rng, n), np.zeros(8, np.float32), n]


def _dot32_ref(args):
    a, b, _out, _n = args
    return float(np.dot(a.astype(np.float64), b.astype(np.float64))), None


def _dot16_args(rng, n):
    return [_f32(rng, n).astype(np.float16).view(np.int16),
            _f32(rng, n).astype(np.float16).view(np.int16),
            np.zeros(8, np.float32), n]


def _dot16_ref(args):
    a, b, _out, _n = args
    fa = a.view(np.float16).astype(np.float64)
    fb = b.view(np.float16).astype(np.float64)
    return float(np.dot(fa, fb)), None


def _dot8_args(rng, n):
    return [rng.integers(-127, 128, n, dtype=np.int8),
            rng.integers(-127, 128, n, dtype=np.int8),
            np.zeros(8, np.int32), n]


def _dot8_ref(args):
    a, b, _out, _n = args
    return int(np.dot(a.astype(np.int64), b.astype(np.int64))), None


def _nibbles(packed):
    raw = packed.view(np.uint8)
    codes = np.empty(raw.size * 2, np.uint8)
    codes[0::2] = raw & 0x0F
    codes[1::2] = raw >> 4
    mags = (codes & 7).astype(np.int64)
    return np.where(codes & 8, -mags, mags)


def _dot4_args(rng, n):
    return [rng.integers(-128, 128, n // 2, dtype=np.int16).astype(np.int8),
            rng.integers(-128, 128, n // 2, dtype=np.int16).astype(np.int8),
            np.zeros(8, np.int32), n]


def _dot4_ref(args):
    a, b, _out, _n = args
    return int(np.dot(_nibbles(a), _nibbles(b))), None


def _scalar_args(rng, n):
    return [rng.integers(-1000, 1000, n, dtype=np.int32),
            rng.integers(-1000, 1000, n, dtype=np.int32),
            int(rng.integers(-9, 10)), n]


def _scalar_ref(args):
    a, b, k, _n = args
    a64 = a.astype(np.int64)
    out = a64 * k + (b.astype(np.int64) >> 2) - (a64 & 7)
    return None, [((out + 2**31) % 2**32 - 2**31).astype(np.int64)]


@dataclass(frozen=True)
class Family:
    """One kernel family: how to stage it, feed it and check it."""

    name: str
    stage: Callable          # cir -> (arg_types, fn)
    make_args: Callable      # (rng, size) -> args
    reference: Callable      # args -> (return value, [array or None])
    align: int               # sizes are multiples of this
    exact: bool              # integer results compare exactly

    def compile(self, pipeline, suffix: str, **kwargs):
        """Stage and compile this family as ``<name>_<suffix>`` through
        the given pipeline module (looked up at call time)."""
        arg_types, fn = self.stage(load())
        return pipeline.compile_staged(fn, arg_types,
                                       name=f"{self.name}_{suffix}",
                                       **kwargs)

    @property
    def pure(self) -> bool:
        """Only the dots' scratch ``out`` is written: every call on the
        same inputs returns the same value."""
        return self.name.startswith("dot")

    def size(self, n: int) -> int:
        return max(self.align, (n // self.align) * self.align)


FAMILIES = {f.name: f for f in (
    Family("saxpy", _saxpy, _saxpy_args, _saxpy_ref, 1, False),
    Family("mmm", _mmm, _mmm_args, _mmm_ref, 8, False),
    Family("dot32", _dot32, _dot32_args, _dot32_ref, 32, False),
    Family("dot16", _dot16, _dot16_args, _dot16_ref, 32, False),
    Family("dot8", _dot8, _dot8_args, _dot8_ref, 32, True),
    Family("dot4", _dot4, _dot4_args, _dot4_ref, 64, True),
    Family("scalar", _scalar, _scalar_args, _scalar_ref, 1, True),
)}


def copy_args(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def _dot_terms(family: Family, args) -> float:
    """Sum of |a_i * b_i|: the scale a float dot's rounding error
    is relative to."""
    a, b = args[0], args[1]
    if family.name == "dot16":
        a, b = a.view(np.float16), b.view(np.float16)
    return float(np.abs(a.astype(np.float64) * b.astype(np.float64)).sum())


def check(family: Family, args_before, args_after, result) -> str | None:
    """Compare one call's outputs against the NumPy reference; returns a
    description of the first mismatch, or ``None``.  Integer families
    must match exactly; float families within ``FLOAT_RTOL`` of the
    magnitudes involved (FMA contraction and lane-order summation)."""
    want_ret, want_arrays = family.reference(args_before)
    if want_ret is not None:
        if family.exact:
            ok = int(result) == want_ret
        else:
            scale = _dot_terms(family, args_before) + 1.0
            ok = abs(float(result) - want_ret) <= FLOAT_RTOL * scale
        if not ok:
            return f"{family.name}: returned {result}, want {want_ret}"
    for j, want in enumerate(want_arrays or ()):
        if want is None:
            continue
        got = args_after[j]
        if family.exact:
            ok = np.array_equal(got.astype(np.int64), want)
        else:
            # MMM accumulates n products per element
            depth = args_before[-1] if family.name == "mmm" else 1
            tol = FLOAT_RTOL * depth * (np.abs(want) + 1.0)
            ok = bool(np.all(np.abs(got.astype(np.float64) - want) <= tol))
        if not ok:
            return f"{family.name}: array {j} differs from the reference"
    return None


def bit_identical(family: Family, args_a, ret_a, args_b, ret_b) -> bool:
    """Whether two tiers' outputs agree bit for bit."""
    if ret_a is not None or ret_b is not None:
        dt = np.int32 if family.exact else np.float32
        if np.asarray(ret_a, dt).tobytes() != np.asarray(ret_b, dt).tobytes():
            return False
    return all(x.tobytes() == y.tobytes()
               for x, y in zip(args_a, args_b) if isinstance(x, np.ndarray))
