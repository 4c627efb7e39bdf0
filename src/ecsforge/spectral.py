"""Integer spectral systems for the holonomy construction.

A Z-spectral system of order m assigns to slots i = 1..2m an integer
exponent E(i) and a selector bit J(i), subject to four axioms coupling
mirrored slots (i, 2m+1-i) and adjacent slots (2j-1, 2j).  The selected
exponents, together with -1, form the set Y whose powers q**Y make up the
spectrum certified by the exact layer.

`standard_family` produces the system of order m = 2r - 3 that exists for
every r >= 3 (gap k = 2r - 1 = m + 2); `search_systems` enumerates all
systems of a small fixed order exhaustively, which is the machine evidence
that even orders admit none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["ZSpectralSystem", "standard_family", "search_systems"]


@dataclass(frozen=True)
class ZSpectralSystem:
    """Order m, gap k, exponents E and selector bits J (slot i at index i-1).

    Axioms, with i' = 2m+1-i the mirrored slot:

      (a) 2*E(1) = k + 1;
      (b) E(i) + E(i') = -1 and J(i) != J(i') for all i;
      (c) E(2j-1) - E(2j) = k and J(2j-1) != J(2j) for all j;
      (d) Y = {-1} | {E(i) : J(i) = 1} has m+1 distinct values and is
          symmetric about 0.

    In any valid system the selector picks exactly one slot from each
    mirrored pair, and the selected exponents sum to 1 (Y is symmetric and
    sums to 0, and -1 accounts for the rest).
    """

    m: int
    k: int
    E: tuple[int, ...]
    J: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "E", tuple(int(v) for v in self.E))
        object.__setattr__(self, "J", tuple(int(v) for v in self.J))

    # -- 1-based slot accessors, matching the formulas in docstrings --------

    def E_of(self, i: int) -> int:
        if not 1 <= i <= 2 * self.m:
            raise IndexError(f"slot {i} outside 1..{2 * self.m}")
        return self.E[i - 1]

    def J_of(self, i: int) -> int:
        if not 1 <= i <= 2 * self.m:
            raise IndexError(f"slot {i} outside 1..{2 * self.m}")
        return self.J[i - 1]

    @property
    def selector(self) -> frozenset[int]:
        """The set of 1-based slots with J = 1."""
        return frozenset(i + 1 for i, bit in enumerate(self.J) if bit == 1)

    @property
    def exponent_spectrum(self) -> frozenset[int]:
        """Y = {-1} together with the selected exponents."""
        return frozenset({-1} | {self.E[i - 1] for i in self.selector})

    # -- validation ----------------------------------------------------------

    def axiom_failures(self) -> tuple[str, ...]:
        """Empty when the system is valid; otherwise one message per failure."""
        m, k = self.m, self.k
        if m < 1:
            return (f"order m must be >= 1, got {m}",)
        if len(self.E) != 2 * m:
            return (f"E needs 2m = {2 * m} entries, got {len(self.E)}",)
        if len(self.J) != 2 * m:
            return (f"J needs 2m = {2 * m} entries, got {len(self.J)}",)
        if any(bit not in (0, 1) for bit in self.J):
            return ("J must be 0/1-valued",)
        failures = []
        if 2 * self.E[0] != k + 1:
            failures.append(f"(a) 2*E(1) = {2 * self.E[0]} but k + 1 = {k + 1}")
        for i in range(1, m + 1):
            ip = 2 * m + 1 - i
            if self.E_of(i) + self.E_of(ip) != -1:
                failures.append(
                    f"(b) E({i}) + E({ip}) = {self.E_of(i) + self.E_of(ip)}, not -1"
                )
            if self.J_of(i) == self.J_of(ip):
                failures.append(f"(b) J({i}) and J({ip}) coincide")
        for j in range(1, m + 1):
            lo, hi = 2 * j - 1, 2 * j
            if self.E_of(lo) - self.E_of(hi) != k:
                failures.append(
                    f"(c) E({lo}) - E({hi}) = {self.E_of(lo) - self.E_of(hi)}, not k = {k}"
                )
            if self.J_of(lo) == self.J_of(hi):
                failures.append(f"(c) J({lo}) and J({hi}) coincide")
        spectrum = self.exponent_spectrum
        if len(spectrum) != m + 1:
            failures.append(
                f"(d) Y holds {len(spectrum)} distinct exponents, expected m + 1 = {m + 1}"
            )
        if any(-y not in spectrum for y in spectrum):
            failures.append("(d) Y is not symmetric about 0")
        return tuple(failures)

    def validate(self) -> None:
        failures = self.axiom_failures()
        if failures:
            raise ValueError("; ".join(failures))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "E": list(self.E), "J": list(self.J)}


def standard_family(r: int) -> ZSpectralSystem:
    """The valid system of order m = 2r - 3 with gap k = 2r - 1, any r >= 3.

    The adjacent-slot exponent pairs (E(2j-1), E(2j)) follow a seven-case
    table over j = 1..m whose middle ranges depend on the parity of r, and
    the selector simply marks the odd exponents.  The returned system is
    validated before it leaves this function, so the axioms hold for every r
    by construction, not by trust in the table's transcription.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 3:
        raise ValueError(f"family parameter r must be an integer >= 3, got {r!r}")
    m = 2 * r - 3
    k = 2 * r - 1
    pairs = []
    for j in range(1, m + 1):
        if j == 1:
            pair = (r, -r + 1)
        elif j < r - 1:
            pair = (j - 1, j - 2 * r) if r % 2 == 0 else (2 * r + j - 2, j - 1)
        elif j == r - 1:
            pair = (r - 1, -r)
        elif j < m:
            pair = (j - 2 * r + 2, j - 4 * r + 3) if r % 2 == 1 else (j + 1, j - 2 * r + 2)
        else:  # j == m; distinct from j == r - 1 whenever r >= 3
            pair = (r - 2, -r - 1)
        pairs.append(pair)
    exponents = tuple(v for pair in pairs for v in pair)
    bits = tuple(abs(v) % 2 for v in exponents)
    system = ZSpectralSystem(m=m, k=k, E=exponents, J=bits)
    system.validate()
    return system


# ---------------------------------------------------------------------------
# exhaustive search


def _diff_partner(i: int) -> int:
    return i + 1 if i % 2 == 1 else i - 1


def _orbit_data(m: int, k: int):
    """Decompose the slot graph into orbits and solve E affinely on each.

    Slots are joined by the adjacent pairing (2j-1, 2j) and the mirrored
    pairing (i, 2m+1-i); every slot has one partner of each kind, so orbits
    are cycles with edges alternating between the pairings.  Walking an edge
    transports E affine-linearly:

        adjacent:  E(2j) = E(2j-1) - k        (sign kept)
        mirrored:  E(i') = -E(i) - 1          (sign flipped)

    so on each orbit E(i) = alpha_i * x + beta_i for a single unknown x.
    Closing a cycle either confirms the labels, forces x (when the two
    derivations disagree in sign), or is contradictory, in which case no
    system exists for this (m, k) and None is returned.

    Returns a list of orbits as (labels, parity, forced_x) where labels maps
    slot -> (alpha, beta), parity maps slot -> 0/1 for the J alternation, and
    forced_x is the pinned parameter value or None if x is still free.  The
    orbit containing slot 1 is always pinned through axiom (a).
    """
    n = 2 * m
    unseen = set(range(1, n + 1))
    orbits = []
    while unseen:
        root = min(unseen)
        labels: dict[int, tuple[int, int]] = {root: (1, 0)}
        parity: dict[int, int] = {root: 0}
        forced_x: int | None = None
        stack = [root]
        while stack:
            i = stack.pop()
            alpha, beta = labels[i]
            neighbours = (
                (_diff_partner(i), alpha, beta - k if i % 2 == 1 else beta + k),
                (n + 1 - i, -alpha, -beta - 1),
            )
            for j, alpha_j, beta_j in neighbours:
                if j not in labels:
                    labels[j] = (alpha_j, beta_j)
                    parity[j] = parity[i] ^ 1
                    stack.append(j)
                    continue
                alpha_0, beta_0 = labels[j]
                if alpha_0 == alpha_j:
                    if beta_0 != beta_j:
                        return None  # cycle closes on a contradiction
                else:
                    # alpha_j*x + beta_j == alpha_0*x + beta_0 pins x
                    num = beta_0 - beta_j
                    den = alpha_j - alpha_0  # +-2
                    if num % den != 0:
                        return None
                    x = num // den
                    if forced_x is not None and forced_x != x:
                        return None
                    forced_x = x
                # J alternates across every edge; cycles are even, so the
                # parity labels are always consistent, but check anyway
                if parity[j] != parity[i] ^ 1:
                    return None
        if root == 1 or 1 in labels:
            alpha, beta = labels[1]
            anchor = k + 1 - 2 * beta
            if anchor % (2 * alpha) != 0:
                return None
            x = anchor // (2 * alpha)  # from 2*E(1) = k + 1
            if forced_x is not None and forced_x != x:
                return None
            forced_x = x
        unseen -= labels.keys()
        orbits.append((labels, parity, forced_x))
    return orbits


def _orbit_options(labels, parity, xs) -> list[tuple[int, int, frozenset[int]]]:
    """The (x, flip, selected values) options of one orbit that can still
    meet axiom (d).

    Every system selects exactly one slot of each mirrored pair, so Y has
    m + 1 distinct values only when no two selected exponents coincide and
    none equals -1; an option whose own selection breaks that is dropped.
    """
    options = []
    for x in xs:
        for flip in (0, 1):
            selected = [
                alpha * x + beta
                for slot, (alpha, beta) in labels.items()
                if parity[slot] ^ flip
            ]
            values = frozenset(selected)
            if len(values) == len(selected) and -1 not in values:
                options.append((x, flip, values))
    return options


def _systems_for_gap(m: int, k: int, window: int) -> Iterator[ZSpectralSystem]:
    """The valid systems of gap k, joined orbit by orbit as `search_systems`
    describes: the orbit with the most options is looked up, not walked."""
    orbits = _orbit_data(m, k)
    if orbits is None:
        return
    options = [
        _orbit_options(
            labels, parity, range(-window, window + 1) if forced_x is None else (forced_x,)
        )
        for labels, parity, forced_x in orbits
    ]
    last = max(range(len(orbits)), key=lambda i: len(options[i]))
    by_value: dict[int, list] = {}
    for option in options[last]:
        for value in option[2]:
            by_value.setdefault(value, []).append(option)

    partials = [(frozenset({-1}), ())]
    for i in sorted(range(len(orbits)), key=lambda i: len(options[i])):
        if i != last:
            partials = [
                (spectrum | option[2], chosen + ((i, option),))
                for spectrum, chosen in partials
                for option in options[i]
                if spectrum.isdisjoint(option[2])
            ]

    n = 2 * m
    for spectrum, chosen in partials:
        missing = next((-y for y in spectrum if -y not in spectrum), None)
        tails = options[last] if missing is None else by_value.get(missing, ())
        for tail in tails:
            if not spectrum.isdisjoint(tail[2]):
                continue
            full = spectrum | tail[2]
            if any(-y not in full for y in full):
                continue
            exponents = [0] * n
            bits = [0] * n
            for i, (x, flip, _) in chosen + ((last, tail),):
                labels, parity, _ = orbits[i]
                for slot, (alpha, beta) in labels.items():
                    exponents[slot - 1] = alpha * x + beta
                    bits[slot - 1] = parity[slot] ^ flip
            system = ZSpectralSystem(m=m, k=k, E=tuple(exponents), J=tuple(bits))
            if not system.axiom_failures():
                yield system


def search_systems(
    m: int, k_max: int, *, window: int | None = None
) -> list[ZSpectralSystem]:
    """All valid systems of order m with odd gap 1 <= k <= k_max.

    Exhaustive within the stated range: axioms (a)-(c) leave one integer
    parameter per unanchored orbit of the slot pairings, scanned over
    |x| <= window (default 2k + 4; a negative window is refused, since it
    would scan nothing and report nothing).  The default window is
    exhaustive for the small orders this is meant for: symmetry of Y forces
    every selected exponent to be the negative of -1 or of another selected
    value, and all anchored values are bounded by (k + 3)/2, so a free
    parameter outside the window cannot produce a symmetric spectrum.  J
    alternates across both pairings, leaving two bit choices per orbit.

    The candidates of this parametrisation meet (a)-(c) by construction,
    so only (d) decides, and the candidates are joined orbit by orbit
    rather than enumerated as a product.  Each orbit contributes one
    option per (x, J alternation) and selects one slot of each of its
    mirrored pairs; (d) needs the m selected values and -1 to be m + 1
    distinct values, so an option that repeats a value or selects -1 is
    dropped, and so is any combination in which two orbits select a common
    value.  The orbit with the most options is joined last and is not
    walked: it must supply the mirror of every value the others leave
    unmatched, so only its options holding one such value are tried (all of
    them when nothing is unmatched).  Each step discards only candidates that fail (d), so the join
    visits every candidate of the full product that could pass, over the
    same window.  A candidate whose spectrum is symmetric is built and
    checked against all four axioms before it is returned.  No (E, J) is
    yielded twice: every label has alpha = +-1, so an orbit's x fixes its
    E, its flip fixes its J, and E fixes k through axiom (c).  Results are
    sorted by (k, E, J); an empty list is a genuine nonexistence
    certificate for the range scanned.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"order m must be a positive integer, got {m!r}")
    if m > 6:
        raise ValueError("exhaustive search supports m <= 6 only")
    if window is not None and window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if k_max < 1:
        return []
    found = [
        system
        for k in range(1, k_max + 1, 2)
        for system in _systems_for_gap(m, k, window if window is not None else 2 * k + 4)
    ]
    found.sort(key=lambda s: (s.k, s.E, s.J))
    return found
