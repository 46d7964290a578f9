"""Explicit Hadamard and conference matrix constructions.

Provides Paley I / Paley II / Paley conference matrices (prime moduli),
Sylvester doubling and Kronecker products, plus a small recipe planner
that realizes a target order as a composition of these generators.

A matrix here is "quasi-orthogonal of weight k": Q Q^T = k I with entries
in {-1, 0, +1}.  Hadamard matrices have k = order and no zeros; conference
matrices have k = order - 1 and a zero diagonal.

A core is held only as its exact product X -> X Q, built from its parts
in O(order) memory: the Jacobsthal circulant by a checked FFT convolution
(``_paley_circulant``), the Paley borders by row sums, a Sylvester
doubling as its half's product over X's two column halves followed by
one butterfly, Paley II as its conference core over X's even and odd
columns followed by one butterfly, and a Kronecker product as its outer
factor over the inner factor's column blocks followed by one product
over the inner factor.  An operator takes only X and out: each part that
needs max|X| scans the rows it is given.  X is read as an integer array,
in place where its layout allows (a Kronecker product copies it); X Q and
every intermediate are float64, which holds them exactly (``rmatmul``).
Every other float array a product keeps holds at most ``PRODUCT_BUDGET``
entries, or one row where a row is longer.  The constructor docstrings
prove that the certificate gives Q Q^T = k I for every core a recipe
builds.
"""

from __future__ import annotations

import math
import re
from itertools import accumulate
from typing import Callable

import numpy as np

from .primes import is_prime

HADAMARD = "hadamard"
CONFERENCE = "conference"


class ExactnessError(ArithmeticError):
    """A core or a product over it could not be certified exact."""


def work_array(work: dict, name: str, shape: tuple, dtype=np.float64
               ) -> np.ndarray:
    """work[name][:shape[0]]: an array kept between calls and allocated
    (zeroed) anew only when it has fewer rows, other trailing dimensions or
    another dtype, so repeated products allocate nothing.  Its contents are
    whatever the last user left there.
    """
    a = work.get(name)
    if (a is None or len(a) < shape[0] or a.shape[1:] != shape[1:]
            or a.dtype != dtype):
        a = work[name] = np.zeros(shape, dtype)
    return a[:shape[0]]


# The float work arrays of a product hold at most this many float64 entries
# (256 KiB), or one row where a row is longer (two transformed rows in the
# FFT): X's rows pass through the FFT and through the Gram block in groups
# that fit it.  So what a product keeps besides P does not grow with the
# border width, at the price of one call of each step per group.  A
# search's products take its trials in chunks whose P fits it, or one
# trial where a trial's P is larger (``border``).
PRODUCT_BUDGET = 1 << 15


def _amplitude(x: np.ndarray) -> int:
    """max |x| as a Python int (0 for an empty array)."""
    return max(-int(x.min(initial=0)), int(x.max(initial=0)))


def _int_type(bound: int) -> type:
    """The narrowest signed integer type that holds every integer of size
    at most bound, for bound < 2^63."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if bound <= np.iinfo(t).max)


class QuasiOrthogonal:
    """Square {-1,0,+1} matrix Q with Q Q^T = weight * I, held as the exact
    operator X -> X Q.

    ``right_mul(X, out)`` sets out = X Q for an integer array X (any
    signed integer type, any strides) with `order` columns whose products
    stay below 2^53 (``rmatmul`` checks this) and a float64 array out of
    its shape.  A core built by a Sylvester doubling or by ``kronecker``
    views out's rows as the rows of its inner product and raises
    ValueError when out's layout does not allow that view.  The operator
    and ``rmatmul``'s callers write into work arrays that the core keeps
    between calls, so no core is for concurrent use.
    """

    def __init__(self, order: int, weight: int, kind: str, recipe: str,
                 right_mul: Callable[[np.ndarray, np.ndarray], None]):
        self.order, self.weight, self.kind = order, weight, kind
        self.recipe, self.right_mul = recipe, right_mul
        self.work: dict = {}

    def rmatmul(self, b: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """Exact B^T Q as float64 for an integer block B with `order` rows,
        written into `out` if given and returned.  B^T is read in place as
        the view ``b.T``.

        Every entry of B^T Q, and every intermediate of the operator, is an
        integer of size at most max|B| * order (the constructors' docstrings
        prove it; the FFT checks its own values), so below 2^53 each is
        exact in float64.  That bound is a raised check, so it also holds
        under python -O.
        """
        b = np.asarray(b)
        if _amplitude(b) * self.order >= 1 << 53:
            raise ExactnessError("B^T Q could leave the integers below 2^53 "
                                 "that float64 holds exactly")
        if out is None:
            out = np.empty(b.shape[::-1])
        self.right_mul(b.T, out)
        return out

    def dense(self) -> np.ndarray:
        """Q as int64 from ``rmatmul`` of the identity, 64 rows at a time:
        O(order^2) memory, for the bordered matrix at n <= 64 and for
        tests."""
        m = self.order
        q = np.empty((m, m), dtype=np.int64)
        for i in range(0, m, 64):
            q[i:i + 64] = self.rmatmul(np.eye(m, min(64, m - i), -i,
                                              dtype=np.int8))
        return q


def _quadratic_character(p: int) -> np.ndarray:
    """chi[x] = +1 if x is a nonzero square mod p, -1 if non-square, 0 at 0."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    chi[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    return chi


_EPS = 2.0 ** -53  # unit roundoff u of float64
_ROOT_ERR = 2 * _EPS  # beta: error of each root of unity the library stores


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n >= 1."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f = f5
        while f < best:
            # f 2^a >= n for the smallest 2^a >= ceil(n / f)
            best = min(best, f << (-(-n // f) - 1).bit_length())
            f *= 3
        f5 *= 5
    return best


def _fft_error_factor(size: int) -> float:
    """E(N) for a 5-smooth length N = size: a convolution taken in float64
    as irfft(rfft(x, N) * rfft(y, N), N) is off, entrywise, by less than
    |x|_2 |y|_2 E(N).

    Sparse factors (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 24.1): up to permutations the FFT is F_N = A_s ... A_1,
    one pass per factor r of N, with |A|_2 = sqrt(r).  If each computed
    pass is off by at most eta_r |A|_2 |w|_2 on its input w, the transform
    is off by at most (prod (1 + eta_r) - 1) |F_N x|_2.  A pass multiplies
    by twiddles of modulus 1 and applies an r-point DFT to each group of r
    entries, modelled as a direct DFT: output j is sum_l omega^(jl) w_l,
    a sum of products by stored roots of unity.  With u = 2^-53, roots off
    by at most beta = 2u and a complex product off by sqrt(5) u (Brent,
    Percival and Zimmermann, Math. Comp. 76, 2007), a product by a stored
    root is off by tau |w| with 1 + tau = (1 + beta)(1 + sqrt(5) u).

    - r = 2: an output w_0 +- w_1 is one rounded sum, off by u times
      itself, so 1 + eta_2 = (1 + u)(1 + tau): Percival's radix-2 stage.
    - r = 3, 5: an output is off by theta_r sum_l |w_l|, with
      1 + theta_r = (1 + gamma_{r-1})(1 + tau) and gamma_k = k u/(1 - k u),
      as r - 1 complex additions round each part apart.  The all-ones
      r x r matrix has 2-norm r, so a group is off by
      theta_r r |w|_2 = sqrt(r) theta_r |A|_2 |w|_2, and with its
      twiddles 1 + eta_r = (1 + tau)(1 + sqrt(r) theta_r).
    - r = 4: pocketfft's radix-4 pass is two layers of sums and
      differences with an exact rotation by -+i between them, and one
      twiddle product: off by (1 + u)^2 (1 + tau) - 1 <= (1 + eta_2)^2 - 1,
      two radix-2 allowances.  So the product runs over the prime factors of
      N, however the library groups them into passes.

    Each of the three transforms is then off by rho = prod (1 + eta_r) - 1
    relative to its exact value, the pointwise product adds sqrt(5) u and
    irfft's scaling by fl(1/N) adds (1 + u)^2.  As in Percival (Math.
    Comp. 72, 2003), E(N) = N ((1 + rho)^3 (1 + sqrt(5) u)(1 + u)^2 - 1).
    At N = 2^n this is his radix-2 factor with the (1 + u)^2 added (the
    2-norm argument gives sqrt(N) in place of N; N only adds margin).

    Two assumptions about the library (numpy >= 2.0's pocketfft) are made,
    not proved: (a) its roots of unity are accurate to beta = 2u; (b) rfft
    and irfft, which run real-data passes, round no more per output than
    the complex transform of the same length.  Exactness needs the error
    below 1/2; the checks ask for 1/4, which also covers the rounding of
    E's own evaluation.
    """
    u, rest = _EPS, size
    mul = math.log1p(_ROOT_ERR) + math.log1p(math.sqrt(5) * u)  # log(1+tau)
    log_pass = {2: math.log1p(u) + mul}
    for r in (3, 5):
        theta = math.expm1(math.log1p((r - 1) * u / (1 - (r - 1) * u)) + mul)
        log_pass[r] = mul + math.log1p(math.sqrt(r) * theta)
    log_rho = 0.0  # log(1 + rho)
    for r in (2, 3, 5):
        while rest > 1 and rest % r == 0:
            rest //= r
            log_rho += log_pass[r]
    if rest != 1:
        raise ValueError(f"FFT length {size} is not 5-smooth")
    return size * math.expm1(3 * log_rho + math.log1p(math.sqrt(5) * u)
                             + 2 * math.log1p(u))


def _paley_fft(p: int, eps: int) -> tuple[int, float]:
    """N and |chi|_2 E(N) for the circulant of p: a prime = 3 (mod 4) for
    eps = -1 (paley_one) or 1 (mod 4) for eps = +1 (paley_conference), else
    a ValueError naming that generator, admitted if sqrt(p) |chi|_2 E(N) is
    below 1/4 (else ExactnessError).  That is the bound a product computes
    for a row of p signs, as every planned leaf gets for sign B, and at
    least the certificate's (p - 1) E(N).  Primality is checked last, so a
    huge p is refused in O(1) time."""
    residue, name = (3, "paley_one") if eps < 0 else (1, "paley_conference")
    refusal = f"{name} needs a prime p = {residue} (mod 4), got {p}"
    if p < 3 or p % 4 != residue:
        raise ValueError(refusal)
    size = _smooth_length(2 * p - 1)
    factor = _fft_error_factor(size) * math.sqrt(p - 1)  # |chi|_2^2 = p - 1
    bound = math.sqrt(p) * factor
    if not bound < 0.25:
        raise ExactnessError(f"FFT rounding bound {bound:.3g} for the "
                             f"character of {p} on sign rows is not below "
                             "1/4")
    if not is_prime(p):
        raise ValueError(refusal)
    return size, factor


def _paley_circulant(p: int, eps: int
                     ) -> Callable[[np.ndarray, np.ndarray], None]:
    """(X, out) -> out = X J, exact in float64, for the Jacobsthal matrix
    J[i, j] = chi(j - i) of the prime p, after certifying chi.

    Each row of X J is the cyclic convolution of that row with chi, taken
    as a linear convolution by FFTs of the smallest 5-smooth length
    N >= 2p - 1 and folded mod p.  Two raised checks: the a-priori bound
    |z|_2 |chi|_2 E(N) of ``_fft_error_factor`` must be below 1/4 for every
    transformed row z, and every computed value must lie within 1/4 of an
    integer.  As the certificate in (3) convolves chi itself, ``_paley_fft``
    checks its bound (p - 1) E(N) before chi is built.

    Two lanes: for amp = max|X| and base = 2 amp (p - 1) + 1, rows 2i and
    2i + 1 are transformed as the one row z = x_2i + base x_2i+1 (an odd
    last row goes alone) when X has at least two rows and the worst case
    sqrt(p) amp (1 + base) |chi|_2 E(N) of the bound is below 1/4, which
    also keeps |z| <= amp (1 + base) below 2^52, exact in float64.  The
    convolution is linear, so z's cyclic image is Y = y_lo + base y_hi for
    the images y_lo of x_2i and y_hi of x_2i+1, each a sum of at most
    p - 1 terms of size amp, so |y_lo| <= (base - 1)/2.  The bound also
    caps |Y| <= |z|_2 |chi|_2 < 1/(4 E(N)) < 2^52, as E(N) > 4 N u.  So
    once Y is rounded to its integer, y_hi = rint(Y / base) is exact (the
    quotient is off by less than 1/2 even after its own rounding) and
    y_lo = Y - base y_hi is an exact float64 difference.  Both checks run
    on the packed rows, which halves the transforms.

    Groups: X's rows are transformed lanes * max(2, PRODUCT_BUDGET // N)
    at a time, with the lanes decided once for the whole X, so a pair
    never straddles two groups, and both checks run on every group.  Two
    float work arrays of a full group's transformed rows, each of about
    max(PRODUCT_BUDGET, 2 N) float64 entries, are made before the
    certificate and kept between calls: the padded rows, which then take
    the inverse transform, and the spectrum, whose float64 view then
    takes the rounded values.  So no product allocates an array here;
    pocketfft takes its own scratch.

    The certificate raises ExactnessError, so it also runs under python -O:
    (1) chi(0) = 0, |chi| = 1 elsewhere and sum chi = 0, so J 1 = 0;
    (2) chi(-x) = eps chi(x), so J^T = eps J (eps = -1 iff p = 3 mod 4);
    (3) the operator maps chi to eps (p e_0 - 1).  By (2),
    (chi J)_j = eps sum_i chi(i) chi(i - j), so the autocorrelation
    a(s) = sum_x chi(x) chi(x + s) is p - 1 at s = 0 and -1 elsewhere, and
    (J J^T)[r, s] = a(s - r) gives J J^T = p I - 1 1^T.
    """
    size, factor = _paley_fft(p, eps)
    chi = _quadratic_character(p)
    if not (chi[0] == 0 and np.all(np.abs(chi[1:]) == 1) and chi.sum() == 0
            and np.array_equal(chi[-np.arange(p) % p], eps * chi)):
        raise ExactnessError(f"the quadratic character of {p} fails its "
                             "sign, sum or symmetry certificate")
    chi_hat = np.fft.rfft(chi.astype(np.float64), size)
    work = {}
    rows = max(2, PRODUCT_BUDGET // size)
    work_array(work, "pad", (rows, size))
    work_array(work, "spec", (rows, size // 2 + 1), complex)

    def transform(x: np.ndarray, out: np.ndarray, lanes: int, base: int
                  ) -> None:
        c = x.shape[0]
        rows = -(-c // lanes)
        pad = work_array(work, "pad", (rows, size))
        pad[:, p:] = 0  # the last irfft wrote there
        xf = pad[:, :p]
        if lanes == 2:
            np.multiply(x[1::2], float(base), out=xf[:c // 2])
            xf[c // 2:] = 0  # an odd last row goes alone
            xf += x[::2]
        else:
            xf[...] = x
        norm = math.sqrt(float(np.einsum("ij,ij->i", xf, xf).max(initial=0)))
        bound = norm * factor
        if not bound < 0.25:
            raise ExactnessError(f"FFT rounding bound {bound:.3g} is not "
                                 "below 1/4")
        spec = np.fft.rfft(pad, out=work_array(
            work, "spec", (rows, size // 2 + 1), complex))
        spec *= chi_hat
        # pad, spent once transformed, takes the inverse, and the float64
        # view of spec, spent once inverted, takes its rounding
        y = np.fft.irfft(spec, size, out=pad)[:, :2 * p - 1]
        r = np.rint(y, out=spec.view(np.float64)[:, :2 * p - 1])
        y -= r
        residual = float(np.abs(y, out=y).max(initial=0))
        if not residual < 0.25:
            raise ExactnessError(f"FFT rounding residual {residual:.3g} is "
                                 "not below 1/4")
        r[:, :p - 1] += r[:, p:]  # integers below 2^52: exact
        r = r[:, :p]
        if lanes == 2:
            hi = np.rint(np.divide(r, base, out=y[:, :p]), out=y[:, :p])
            out[1::2] = hi[:c // 2]
            r -= np.multiply(hi, base, out=hi)
        out[::lanes] = r

    def right_mul(x: np.ndarray, out: np.ndarray) -> None:
        c, amp = x.shape[0], _amplitude(x)
        base = 2 * amp * (p - 1) + 1
        lanes = 2 if c > 1 and (math.sqrt(p) * amp * (1 + base) * factor
                                < 0.25) else 1
        group = lanes * max(2, PRODUCT_BUDGET // size)
        for i in range(0, c, group):
            transform(x[i:i + group], out[i:i + group], lanes, base)

    image = np.empty((1, p))
    right_mul(chi[None], image)
    if image[0, 0] != eps * (p - 1) or np.any(image[0, 1:] != -eps):
        raise ExactnessError(f"the quadratic character of {p} fails its "
                             "autocorrelation certificate")
    return right_mul


def paley_one(p: int) -> QuasiOrthogonal:
    """Hadamard matrix of order p+1 for prime p = 3 (mod 4).

    Q = [[1, 1^T], [1, -(I + J)]] for the certified J (eps = -1).  Row 0
    is orthogonal to row i, as 1 - 1 - (J 1)_i = 0, and the lower block
    gives 1 1^T + (I + J)(I + J)^T = 1 1^T + I + (J + J^T) + J J^T
    = (p + 1) I.
    """
    conv = _paley_circulant(p, -1)

    def right_mul(x, out):
        x0, xr = x[:, :1], x[:, 1:]
        out[:, :1] = x0 + xr.sum(axis=1, keepdims=True)
        yr = out[:, 1:]
        conv(xr, yr)
        yr += xr
        np.subtract(x0, yr, out=yr)

    return QuasiOrthogonal(p + 1, p + 1, HADAMARD, f"paley1({p})", right_mul)


def paley_conference(p: int) -> QuasiOrthogonal:
    """Symmetric conference matrix of order p+1 for prime p = 1 (mod 4).

    C = [[0, 1^T], [1, J]] for the certified J (eps = +1): C is symmetric,
    row 0 is orthogonal to row i, as (J 1)_i = 0, and 1 1^T + J J^T = p I.
    """
    conv = _paley_circulant(p, 1)

    def right_mul(x, out):
        x0, xr = x[:, :1], x[:, 1:]
        out[:, :1] = xr.sum(axis=1, keepdims=True)
        conv(xr, out[:, 1:])
        out[:, 1:] += x0

    return QuasiOrthogonal(p + 1, p, CONFERENCE, f"conference({p})",
                           right_mul)


def _butterfly(u: np.ndarray, v: np.ndarray) -> None:
    """(u, v) -> (u + v, u - v) in place, as u += v, v *= -2, v += u."""
    u += v
    v *= -2
    v += u


def paley_two(p: int) -> QuasiOrthogonal:
    """Hadamard matrix of order 2(p+1) for prime p = 1 (mod 4).

    H = C (x) K + I (x) L for the conference matrix C of order p+1, with
    K = [[1, 1], [1, -1]] and L = [[1, -1], [-1, -1]], is a sign matrix as
    C has a zero diagonal.  K K^T = L L^T = 2I, L K^T = -K L^T and C = C^T,
    so H H^T = C C^T (x) 2I + (C - C^T) (x) K L^T + 2I = 2(p + 1) I.
    Column 2j + s of X is entry s of pair j: for X's even and odd columns
    a and b, [a b] K = [a + b, a - b] and [a b] L = [a - b, -(a + b)], so by
    linearity X H has even columns U + V and odd ones U - V for
    U = a C - b and V = b C + a.  C runs on a and on b straight into out's
    even and odd columns, which then take U and V and one butterfly, in
    place in float64.  |a C|, |b C| <= p max|X|, so
    every intermediate (2V among them) is an integer of size at most
    order max|X|.
    """
    conf = paley_conference(p)  # validates p

    def right_mul(x, out):
        a, b = x[:, 0::2], x[:, 1::2]
        even, odd = out[:, 0::2], out[:, 1::2]
        conf.right_mul(a, even)
        conf.right_mul(b, odd)
        even -= b
        odd += a
        _butterfly(even, odd)

    return QuasiOrthogonal(2 * p + 2, 2 * p + 2, HADAMARD, f"paley2({p})",
                           right_mul)


def sylvester_double(q: QuasiOrthogonal) -> QuasiOrthogonal:
    """Order-doubling [[Q, Q], [Q, -Q]] = H_2 (x) Q; Hadamard input only.

    Its Gram matrix is [[2 Q Q^T, 0], [0, 2 Q Q^T]] = 2k I.  For X cut into
    column halves X_0 and X_1 of width h, X [[Q, Q], [Q, -Q]] is
    [Y_0 + Y_1, Y_0 - Y_1] for Y_i = X_i Q.  So Q's operator runs once on
    X cut into 2c rows of width h (a view where X's layout allows), into
    out viewed so (else ValueError), and one butterfly then turns each
    row's halves (Y_0, Y_1) into (Y_0 + Y_1, Y_0 - Y_1) in place in
    float64.  A tower of L doublings of a leaf Q0 is L nested calls: one
    call of Q0 on X's c 2^L column blocks, then the butterflies from
    blocks of Q0's width up.  By induction |Y_i| <= h max|X|, so every
    intermediate (2 Y_1 among them) is an integer of size at most
    order max|X|.
    """
    if q.kind != HADAMARD:
        raise ValueError("sylvester_double requires a Hadamard matrix")
    h = q.order

    def right_mul(x, out):
        c = x.shape[0]
        # out: a view or a ValueError, never a copy that would lose the result
        q.right_mul(x.reshape(2 * c, h),
                    np.reshape(out, (2 * c, h), copy=False))
        halves = np.reshape(out, (c, 2, h), copy=False)
        _butterfly(halves[:, 0], halves[:, 1])

    return QuasiOrthogonal(2 * h, 2 * h, HADAMARD, q.recipe + ";double",
                           right_mul)


def kronecker(q1: QuasiOrthogonal, q2: QuasiOrthogonal) -> QuasiOrthogonal:
    """Kronecker product of two Hadamard matrices.

    (A (x) B)(A (x) B)^T = A A^T (x) B B^T = ab I for orders a and b.

    For X cut into a column blocks X_i of width b, block l of X (A (x) B) is
    Z_l B with Z_l = sum_i A[i, l] X_i.  The outer factor A runs once on
    the c b rows of length a of an integer copy of X's blocks transposed,
    writing into out as scratch; its image is copied back block by block
    into Z, in the narrowest integer type that holds a max|X|; then B
    runs once on Z's c a rows, writing into a view of out's rows.  An out
    that cannot be viewed so raises ValueError.
    """
    if q1.kind != HADAMARD or q2.kind != HADAMARD:
        raise ValueError("kronecker requires Hadamard matrices")
    a, b = q1.order, q2.order
    work = {}

    def right_mul(x, out):
        c = x.shape[0]
        scratch = np.reshape(out, (c * b, a), copy=False)
        # the transposed blocks' rows cannot be a view of X: one copy
        q1.right_mul(x.reshape(c, a, b).transpose(0, 2, 1).reshape(c * b, a),
                     scratch)
        z = work_array(work, "z", (c, a, b), _int_type(a * _amplitude(x)))
        z[...] = scratch.reshape(c, b, a).transpose(0, 2, 1)
        q2.right_mul(z.reshape(c * a, b),
                     np.reshape(out, (c * a, b), copy=False))

    return QuasiOrthogonal(a * b, a * b, HADAMARD,
                           f"kron({q1.recipe},{q2.recipe})", right_mul)


def unit() -> QuasiOrthogonal:
    return QuasiOrthogonal(1, 1, HADAMARD, "unit",
                           lambda x, out: np.copyto(out, x))


# ---------------------------------------------------------------------------
# recipe grammar: generator followed by ";double" steps; kron(...) nests.

_GEN_RE = re.compile(r"^(paley1|paley2|conference)\((\d+)\)$")

# kron(...) nests recursion in the build and in every product, where each
# ;double nests one call too (log2 of the order at most)
RECIPE_NESTING_LIMIT = 64


def _split_top(s: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def build_recipe(recipe: str) -> QuasiOrthogonal:
    """Rebuild a matrix from its recipe string, e.g. 'paley1(331);double'."""
    depth = max(accumulate((c == "(") - (c == ")") for c in recipe), default=0)
    if depth > RECIPE_NESTING_LIMIT:
        raise ValueError(f"recipe nests {depth} levels of parentheses; the "
                         f"limit is {RECIPE_NESTING_LIMIT}")
    tokens = _split_top(recipe.strip(), ";")
    if not tokens or not tokens[0]:
        raise ValueError("empty recipe")
    head = tokens[0].strip()
    if head == "unit":
        q = unit()
    elif head.startswith("kron(") and head.endswith(")"):
        args = _split_top(head[5:-1], ",")
        if len(args) != 2:
            raise ValueError(f"kron takes two recipes: {head!r}")
        q = kronecker(build_recipe(args[0]), build_recipe(args[1]))
    else:
        match = _GEN_RE.match(head)
        if not match:
            raise ValueError(f"unknown generator {head!r}")
        name, p = match.group(1), int(match.group(2))
        q = {"paley1": paley_one, "paley2": paley_two,
             "conference": paley_conference}[name](p)
    for tok in tokens[1:]:
        if tok.strip() != "double":
            raise ValueError(f"unknown recipe step {tok!r}")
        q = sylvester_double(q)
    return q


def _admits(p: int, eps: int) -> bool:
    """Whether ``_paley_fft`` admits p."""
    try:
        _paley_fft(p, eps)
    except (ValueError, ExactnessError):
        return False
    return True


def plan_recipe(order: int) -> str:
    """A recipe realizing the given order: conference(order - 1) for an
    order = 2 (mod 4) above 2, as symmetric conference orders p + 1
    (p = 1 mod 4) are 2 mod 4 and Hadamard orders 1, 2 or 0 mod 4, else a
    Hadamard recipe.

    Hadamard search tries, for each number of Sylvester doublings j with
    2^j | order: paley1 (base-1 prime = 3 mod 4), then paley2, then the
    pure power-of-two tower.  Prime moduli only; prime-power fields are
    not implemented.  A Paley prime must pass ``_paley_fft``, without trial
    division: every leaf reads B itself, so for sign B its product computes
    the very bound it was admitted on and cannot fail after B is drawn.  A
    refused Hadamard order falls through to the next recipe, a refused
    conference order raises ExactnessError, as no other recipe makes it.
    Where no recipe realizes the order, ValueError.
    """
    # a message, not an exception kept in a local: a raised exception's
    # traceback holds this frame, and so would hold itself
    conference = order % 4 == 2 and order > 2
    refusal = (f"no recipe realizes {CONFERENCE if conference else HADAMARD}"
               f" order {order}")
    if conference:
        try:
            _paley_fft(order - 1, 1)
        except ValueError:
            raise ValueError(refusal) from None
        return f"conference({order - 1})"
    base, j = order, 0
    while base >= 1:
        if _admits(base - 1, -1):
            return f"paley1({base - 1})" + ";double" * j
        if base % 2 == 0 and _admits(base // 2 - 1, 1):
            return f"paley2({base // 2 - 1})" + ";double" * j
        if base == 1:
            return "unit" + ";double" * j
        if base % 2:
            break
        base //= 2
        j += 1
    raise ValueError(refusal)
