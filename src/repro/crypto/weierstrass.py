"""Short-Weierstrass curves y² = x³ + b (a = 0) over a prime field.

secp256k1 (every transaction and PoA seal signature) and BN254's G1
(the SNARK's first pairing group) both have this form, with
p ≡ n ≡ 1 (mod 3), so both run on this one implementation of the group
law: Jacobian doubling and addition, a batch-affine addition that
shares one field inversion among many sums, a double-and-add reference
ladder, the GLV endomorphism φ(x, y) = (βx, y) with a width-5 wNAF
ladder over both GLV halves, and :class:`FixedBaseTable` for many
multiplications of one base.

Affine points are ``(x, y)`` int pairs, ``None`` being the point at
infinity.  Jacobian points are ``(X, Y, Z)`` with x = X/Z², y = Y/Z³,
and Z = 0 at infinity.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.glv import GLVParams, cube_root_of_unity

Point = Optional[Tuple[int, int]]  # None is the point at infinity.


def _group_law(p: int):
    """Jacobian doubling and addition, and batch-affine addition, on
    y² = x³ + b mod ``p``.

    The modulus is bound in the closures rather than read off the
    curve object: a production Groth16 setup runs the additions over a
    million times, and an attribute load per call would show.  No
    formula reads b.
    """

    def jac_double(pt):
        x, y, z = pt
        if y == 0 or z == 0:
            return (0, 1, 0)
        ysq = (y * y) % p
        s = (4 * x * ysq) % p
        m = (3 * x * x) % p
        nx = (m * m - 2 * s) % p
        ny = (m * (s - nx) - 8 * ysq * ysq) % p
        nz = (2 * y * z) % p
        return (nx, ny, nz)

    def jac_add(p1, p2):
        if p1[2] == 0:
            return p2
        if p2[2] == 0:
            return p1
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        # Mixed-add shortcut: ladders, table walks and the MSM's window
        # combination feed one affine (z = 1) operand most of the time,
        # saving four of the sixteen field multiplies.
        if z2 == 1:
            u1, s1 = x1, y1
            z1sq = (z1 * z1) % p
            u2 = (x2 * z1sq) % p
            s2 = (y2 * z1sq * z1) % p
            zz = z1
        elif z1 == 1:
            u2, s2 = x2, y2
            z2sq = (z2 * z2) % p
            u1 = (x1 * z2sq) % p
            s1 = (y1 * z2sq * z2) % p
            zz = z2
        else:
            z1sq = (z1 * z1) % p
            z2sq = (z2 * z2) % p
            u1 = (x1 * z2sq) % p
            u2 = (x2 * z1sq) % p
            s1 = (y1 * z2sq * z2) % p
            s2 = (y2 * z1sq * z1) % p
            zz = (z1 * z2) % p
        if u1 == u2:
            if s1 != s2:
                return (0, 1, 0)
            return jac_double(p1)
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        h2 = (h * h) % p
        h3 = (h * h2) % p
        u1h2 = (u1 * h2) % p
        nx = (r * r - h3 - 2 * u1h2) % p
        ny = (r * (u1h2 - nx) - s1 * h3) % p
        nz = (h * zz) % p
        return (nx, ny, nz)

    def batch_add(left, right):
        """Affine sums ``left[i] + right[i]`` sharing one field inversion.

        Montgomery's trick: invert the product of every slope denominator
        once, then peel each inverse off the prefix products walking back.
        Equal points take the tangent slope 3x²/2y (a = 0); P + (−P) is
        None (infinity) and leaves the product alone.
        """
        prefix = []
        push = prefix.append
        acc = 1
        for (x1, y1), (x2, y2) in zip(left, right):
            push(acc)
            d = x2 - x1
            if d:
                acc = acc * d % p
            elif y1 == y2 and y1:
                acc = acc * 2 * y1 % p
        inv = pow(acc, -1, p)
        i = len(prefix)
        out = [None] * i
        for (x1, y1), (x2, y2) in zip(reversed(left), reversed(right)):
            i -= 1
            d = x2 - x1
            if d:
                lam = (y2 - y1) * (inv * prefix[i] % p) % p
                inv = inv * d % p
            elif y1 == y2 and y1:
                lam = 3 * x1 * x1 * (inv * prefix[i] % p) % p
                inv = inv * 2 * y1 % p
            else:
                continue
            x3 = (lam * lam - x1 - x2) % p
            out[i] = (x3, (lam * (x1 - x3) - y1) % p)
        return out

    return jac_double, jac_add, batch_add


def _affine_to_jac(point: Tuple[int, int]) -> Tuple[int, int, int]:
    return (point[0], point[1], 1)


#: Digit width w of :meth:`WeierstrassCurve.mul`'s signed expansion.
#: Nonzero digits are odd, below 2^(w−1) in magnitude and at least w
#: positions apart, so each GLV half adds on about one position in
#: w + 1 from a table of P, 3P, …, (2^(w−1) − 1)P.
WNAF_WIDTH = 5


def _wnaf(k: int) -> List[int]:
    """The width-:data:`WNAF_WIDTH` NAF of ``k ≥ 0``, lowest digit first.

    An odd remainder takes the digit d ≡ k (mod 2^w) in
    (−2^(w−1), 2^(w−1)); subtracting it clears the next w − 1 bits,
    so the digits that follow are zero.  ``sum(d·2^i) == k``.
    """
    size = 1 << WNAF_WIDTH
    half = size >> 1
    digits: List[int] = []
    push = digits.append
    while k:
        if k & 1:
            d = k & (size - 1)
            if d >= half:
                d -= size
            k -= d
            push(d)
        else:
            push(0)
        k >>= 1
    return digits


def _signed_table(odd: List[Tuple[int, int]], negate: bool, p: int) -> list:
    """Mixed-addition operands for the digits of :func:`_wnaf`.

    Entry d holds d·P as a z = 1 Jacobian triple for every odd digit,
    the negative ones through Python's negative indexing (index
    2^w + d), so a signed digit picks its entry directly.  ``odd`` is
    [P, 3P, …]; ``negate`` folds the sign of the scalar into y.
    """
    table: list = [None] * (1 << WNAF_WIDTH)
    for j, (x, y) in enumerate(odd):
        minus_y = -y % p
        if negate:
            y, minus_y = minus_y, y
        table[2 * j + 1] = (x, y, 1)
        table[-2 * j - 1] = (x, minus_y, 1)
    return table


class WeierstrassCurve:
    """The prime-order group of y² = x³ + b over F_p.

    ``jac_double`` and ``jac_add`` are plain functions on Jacobian
    triples, and ``batch_add`` on lists of affine pairs (see
    :func:`_group_law`), so hot loops, the MSM and the fixed-base
    tables can bind them once.  The GLV set-up is lazy: nothing is
    computed until the first wide scalar multiplication.
    """

    def __init__(self, p: int, b: int, order: int, generator: Tuple[int, int]) -> None:
        self.p = p
        self.b = b
        self.order = order
        self.generator = generator
        self.jac_double, self.jac_add, self.batch_add = _group_law(p)
        self._glv: Optional[Tuple[GLVParams, int]] = None

    def is_on_curve(self, point: Point) -> bool:
        """Whether an affine point satisfies the curve equation."""
        if point is None:
            return True
        x, y = point
        return (y * y - x * x * x - self.b) % self.p == 0

    def neg(self, point: Point) -> Point:
        if point is None:
            return None
        return (point[0], -point[1] % self.p)

    def from_jac(self, pt) -> Point:
        """The affine form of a Jacobian point (one field inversion)."""
        x, y, z = pt
        if z == 0:
            return None
        p = self.p
        zi = pow(z, -1, p)
        zi2 = (zi * zi) % p
        return ((x * zi2) % p, (y * zi2 * zi) % p)

    def add(self, p1: Point, p2: Point) -> Point:
        """Affine addition (via one Jacobian round trip)."""
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        return self.from_jac(self.jac_add((p1[0], p1[1], 1), (p2[0], p2[1], 1)))

    def double_and_add(self, point: Tuple[int, int], scalar: int) -> Point:
        """``scalar · point`` by binary double-and-add, for ``scalar ≥ 0``.

        The scalar is not reduced mod the order, so ``order · G`` really
        walks to infinity.  :meth:`mul` takes this ladder for scalars no
        wider than a GLV component; it is also the reference that the
        GLV set-up and the differential tests check the fast paths
        against.
        """
        jac_add, jac_double = self.jac_add, self.jac_double
        acc = (0, 1, 0)
        addend = (point[0], point[1], 1)
        while scalar:
            if scalar & 1:
                acc = jac_add(acc, addend)
            addend = jac_double(addend)
            scalar >>= 1
        return self.from_jac(acc)

    def glv(self) -> Tuple[GLVParams, int]:
        """The GLV parameters and the β that realizes their λ (lazy).

        λ and β are primitive cube roots of unity mod n and mod p; each
        λ matches exactly one of the two β candidates, so the pairing is
        fixed by checking φ(G) = λ·G against :meth:`double_and_add`
        once.
        """
        if self._glv is None:
            p = self.p
            params = GLVParams.for_order(self.order)
            x, y = self.generator
            target = self.double_and_add(self.generator, params.lam)
            beta = cube_root_of_unity(p)
            if (beta * x % p, y) != target:
                beta = beta * beta % p
            if (beta * x % p, y) != target:
                raise ArithmeticError("no cube root of unity realizes phi(G) = lam*G")
            self._glv = (params, beta)
        return self._glv

    def mul(self, point: Point, scalar: int) -> Point:
        """``scalar · point``, the scalar taken mod the group order.

        A scalar wider than the GLV component bound splits into
        k₁ + k₂·λ ≡ k (mod n), two ~half-width components.  Each is
        recoded by :func:`_wnaf` and both run in one loop of shared
        doublings (half the doublings of the full-width scalar), every
        nonzero digit a mixed addition of an affine entry: the odd
        multiples P, 3P, …, 15P for k₁ and their images (βx, y) = φ(·)
        for k₂, each component's sign folded into y.  Narrower scalars
        take :meth:`double_and_add`.
        """
        scalar %= self.order
        if point is None or scalar == 0:
            return None
        params, beta = self.glv()
        if scalar.bit_length() <= params.max_component_bits():
            return self.double_and_add(point, scalar)
        p = self.p
        jac_add, jac_double = self.jac_add, self.jac_double
        k1, k2 = params.decompose(scalar)
        odd = self._odd_multiples(point)
        table1 = _signed_table(odd, k1 < 0, p)
        table2 = _signed_table([(x * beta % p, y) for x, y in odd], k2 < 0, p)
        digits1, digits2 = _wnaf(abs(k1)), _wnaf(abs(k2))
        length = max(len(digits1), len(digits2))
        digits1 += [0] * (length - len(digits1))
        digits2 += [0] * (length - len(digits2))
        acc = (0, 1, 0)
        for d1, d2 in zip(reversed(digits1), reversed(digits2)):
            acc = jac_double(acc)
            if d1:
                acc = jac_add(acc, table1[d1])
            if d2:
                acc = jac_add(acc, table2[d2])
        return self.from_jac(acc)

    def _odd_multiples(self, point: Tuple[int, int]) -> List[Tuple[int, int]]:
        """Affine [P, 3P, …, (2^(w−1) − 1)P] for :data:`WNAF_WIDTH` w.

        Built in layers that each add 2^i·P to every odd multiple so
        far and double 2^i·P (the last doubling goes unused), one
        ``batch_add`` (one field inversion) per layer: four for w = 5,
        where a chain of additions would take eight.
        """
        batch_add = self.batch_add
        odd = [point]
        (step,) = batch_add([point], [point])
        while len(odd) < 1 << (WNAF_WIDTH - 2):
            *more, step = batch_add(odd + [step], [step] * (len(odd) + 1))
            odd += more
        return odd

    def fixed_base(self, point: Tuple[int, int], window: int) -> "FixedBaseTable":
        """A :class:`FixedBaseTable` of ``window``-bit windows for ``point``."""
        return FixedBaseTable(
            point,
            window,
            self.order,
            batch_add=self.batch_add,
            neg=self.neg,
            to_jac=_affine_to_jac,
            jac_add=self.jac_add,
            from_jac=self.from_jac,
            from_affine=lambda pt: pt,
        )


#: Scalars per :meth:`FixedBaseTable.mul_many` step batch: one field
#: inversion per window step serves this many additions, and the step's
#: working lists never grow past it.
MUL_MANY_CHUNK = 1024


class FixedBaseTable:
    """Signed-digit windowed precomputation for many multiples of one base.

    Row i holds the affine multiples ``j · 2^(i·w) · B`` for
    ``j ∈ [1, 2^(w−1)]``.  A scalar is read in w-bit windows as signed
    digits: a digit above 2^(w−1) becomes d − 2^w and carries one into
    the next window, and a negative digit takes the negated entry
    (y → p − y).  There are ⌊bits/w⌋ + 1 rows for a ``bits``-bit order,
    so when w divides the bit length the last row takes the top carry.
    A scalar multiplication then costs at most one addition per window
    (32 for a 254-bit order at w = 8) instead of a double-and-add
    ladder, and the rows hold half the entries unsigned digits need.

    Two ways to multiply: :meth:`mul` takes one scalar and accumulates
    in Jacobian coordinates (mixed additions against the affine
    entries, one inversion at the end); :meth:`mul_many` takes a list
    and moves every scalar one window per step, each step's additions
    sharing one inversion through ``batch_add``.

    The group law comes in as functions on the group's affine tuples,
    so G2 builds its tables over raw ``(x0, x1, y0, y1)`` coordinates:
    ``batch_add`` and ``neg`` act on affine tuples, ``to_jac`` lifts
    one to ``jac_add``'s Jacobian form, and ``from_jac`` and
    ``from_affine`` give the caller's point type.
    """

    def __init__(
        self,
        base,
        window: int,
        order: int,
        *,
        batch_add,
        neg,
        to_jac,
        jac_add,
        from_jac,
        from_affine,
    ) -> None:
        self.window = window
        self.order = order
        self._batch_add = batch_add
        self._neg = neg
        self._to_jac = to_jac
        self._jac_add = jac_add
        self._from_jac = from_jac
        self._from_affine = from_affine
        self._mask = (1 << window) - 1
        half = 1 << (window - 1)
        self._half = half
        # Row bases 2^(i·w)·B by doubling, then every row advances one
        # multiple per step: one inversion per doubling, then one per step.
        bases = [base]
        for _ in range(order.bit_length() // window):
            point = bases[-1]
            for _ in range(window):
                (point,) = batch_add([point], [point])
            bases.append(point)
        rows = [[point] for point in bases]
        current = bases
        for _ in range(half - 1):
            current = batch_add(current, bases)
            for row, point in zip(rows, current):
                row.append(point)
        self._rows: List[list] = rows

    def mul(self, scalar: int):
        """The scalar multiple of the base (None when ``order`` divides it).

        One scalar pays no batch: it accumulates in Jacobian
        coordinates and takes one inversion at the end, where a batch of
        one would take one per window.
        """
        scalar %= self.order
        if scalar == 0:
            return None
        jac_add, to_jac, neg = self._jac_add, self._to_jac, self._neg
        mask, half, window = self._mask, self._half, self.window
        acc = None
        for row in self._rows:
            if not scalar:
                break
            d = scalar & mask
            scalar >>= window
            if d > half:
                entry = to_jac(neg(row[mask - d]))
                scalar += 1
            elif d:
                entry = to_jac(row[d - 1])
            else:
                continue
            acc = entry if acc is None else jac_add(acc, entry)
        return self._from_jac(acc)

    def mul_many(self, scalars: Sequence[int]) -> list:
        """``[self.mul(s) for s in scalars]``, sharing inversions.

        Every scalar moves forward one window per step, and the step's
        additions (one per scalar with a nonzero digit) run as one
        ``batch_add``, so a step costs one inversion however many
        scalars it carries.  An accumulator that is still empty takes
        its entry directly, and one that cancels (P + (−P)) is empty
        again; a scalar ≡ 0 (mod order) gives None.

        A query runs in chunks of :data:`MUL_MANY_CHUNK` scalars, so a
        step's lists stay that short however long the query is, while
        each inversion still serves up to that many additions.
        """
        out: list = []
        for start in range(0, len(scalars), MUL_MANY_CHUNK):
            out.extend(self._mul_chunk(scalars[start : start + MUL_MANY_CHUNK]))
        return out

    def _mul_chunk(self, scalars: Sequence[int]) -> list:
        batch_add, neg = self._batch_add, self._neg
        mask, half, window = self._mask, self._half, self.window
        order = self.order
        rest = [s % order for s in scalars]
        acc: list = [None] * len(rest)
        for row in self._rows:
            left = []
            right = []
            slots = []
            for i, r in enumerate(rest):
                if not r:
                    continue
                d = r & mask
                r >>= window
                if d > half:
                    entry = neg(row[mask - d])
                    r += 1
                elif d:
                    entry = row[d - 1]
                else:
                    rest[i] = r
                    continue
                rest[i] = r
                a = acc[i]
                if a is None:
                    acc[i] = entry
                else:
                    left.append(a)
                    right.append(entry)
                    slots.append(i)
            if left:
                for i, s in zip(slots, batch_add(left, right)):
                    acc[i] = s
        from_affine = self._from_affine
        return [None if a is None else from_affine(a) for a in acc]
