"""Model data assembled from a spectral system.

From a spectral system of order m and a trace parameter p this builds the
finite-dimensional ingredients of an (m+2)-dimensional plane-wave model:

* the anti-diagonal inner product <e_i, e_j> = eps when i + j = m + 1 on
  the span L of e_1..e_m (signature split evenly up to the middle vector);
* the rank-one shift A with A e_m = e_1 and A e_j = 0 otherwise;
* the diagonal scaling C = diag(q**a(i)) with integer exponents
  a(i) = E(2i-1) + (1-k)/2, an isometry of the inner product conjugating
  A to q**2 A;
* a curvature profile f(t), by default the power law (k**2 - 1)/(4 t**2).

All structural identities here are checked in integer or quadratic-field
arithmetic; nothing numeric enters until the geometry layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .exact import QFieldContext
from .spectral import ZSpectralSystem

__all__ = [
    "HomogeneousF",
    "ModelData",
    "build_model",
    "check_model",
    "kappa",
    "bridging_checks",
    "conjugation_checks",
    "curvature_identities",
    "isometry_checks",
    "load_model_lenient",
    "PROFILE_DECODERS",
]


@dataclass(frozen=True)
class HomogeneousF:
    """Power-law profile f(t) = (k**2 - 1) / (4 t**2).

    Exactly self-similar: q**2 * f(q*t) = f(t) for every scale q.  The
    associated solution space of y'' = f y is spanned by the monomials
    t**((1 -+ k)/2).
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"profile gap k must be odd and positive, got {self.k}")

    def value(self, t):
        return (self.k * self.k - 1) / (4.0 * t * t)

    def deriv(self, t):
        return -(self.k * self.k - 1) / (2.0 * t * t * t)

    @property
    def vanishes(self) -> bool:
        """f == 0, decided on the integer k."""
        return self.k * self.k == 1

    def to_json_dict(self) -> dict:
        return {"variant": "homogeneous", "k": self.k}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "HomogeneousF":
        return cls(k=int(data["k"]))


# profile decoders by JSON variant; the deformation module registers its own
PROFILE_DECODERS: dict[str, Callable[[Mapping], object]] = {
    "homogeneous": HomogeneousF.from_json_dict,
}


@dataclass(frozen=True)
class ModelData:
    """A complete model: dimension n = m + 2, trace parameter p, sign eps,
    spectral system, scaling exponents a(1..m) and curvature profile f."""

    n: int
    p: int
    eps: int
    system: ZSpectralSystem
    a: tuple[int, ...]
    f: object

    @property
    def m(self) -> int:
        return self.n - 2

    @property
    def k(self) -> int:
        return self.system.k

    @property
    def mu_exponents(self) -> tuple[int, int]:
        """Exponents of mu+- = q**((-1 +- k)/2), the scalar transfer
        eigenvalues of the power-law profile."""
        return ((self.k - 1) // 2, -(self.k + 1) // 2)

    def context(self) -> QFieldContext:
        ctx = getattr(self, "_ctx", None)
        if ctx is None:
            ctx = QFieldContext(self.p)
            object.__setattr__(self, "_ctx", ctx)
        return ctx

    # -- inner product and maps on L -----------------------------------------

    def inner(self, v: Sequence[float], w: Sequence[float]) -> float:
        """<v, w> = eps * sum_i v_i w_{m+1-i} (anti-diagonal pairing)."""
        m = self.m
        return self.eps * sum(v[i] * w[m - 1 - i] for i in range(m))

    def h_rows(self) -> tuple[tuple[int, ...], ...]:
        m = self.m
        return tuple(
            tuple(self.eps if i + j == m - 1 else 0 for j in range(m))
            for i in range(m)
        )

    def shift_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rank-one map A in the e-basis: a 1 in entry (1, m)."""
        m = self.m
        return tuple(
            tuple(1 if (i, j) == (0, m - 1) else 0 for j in range(m))
            for i in range(m)
        )

    def apply_shift(self, v: Sequence[float]) -> list[float]:
        out = [0.0] * self.m
        out[0] = v[self.m - 1]
        return out

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "ecs-forge/1",
            "n": self.n,
            "p": self.p,
            "eps": self.eps,
            "a": list(self.a),
            "system": self.system.to_json_dict(),
            "f": self.f.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ModelData":
        model = load_model_lenient(data)
        failures = check_model(model)
        if failures:
            raise ValueError("; ".join(failures))
        return model


def load_model_lenient(data: Mapping) -> ModelData:
    """Reconstruct a model without validating it, so that certification can
    report broken invariants as failing sections instead of refusing the
    file.  Structural unreadability (wrong schema, missing keys, unknown
    profile) still raises."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a model file must hold a JSON object, not a {type(data).__name__}")
    if data.get("schema") != "ecs-forge/1":
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    sys_data = data["system"]
    system = ZSpectralSystem(
        m=int(sys_data["m"]),
        k=int(sys_data["k"]),
        E=tuple(sys_data["E"]),
        J=tuple(sys_data["J"]),
    )
    f_data = data["f"]
    if not isinstance(f_data, Mapping):
        raise ValueError(f"profile 'f' must be a JSON object, not a {type(f_data).__name__}")
    decoder = PROFILE_DECODERS.get(f_data.get("variant"))
    if decoder is None:
        raise ValueError(f"unknown profile variant {f_data.get('variant')!r}")
    return ModelData(
        n=int(data["n"]),
        p=int(data["p"]),
        eps=int(data["eps"]),
        system=system,
        a=tuple(int(v) for v in data["a"]),
        f=decoder(f_data),
    )


def build_model(
    system: ZSpectralSystem,
    p: int,
    eps: int = 1,
    f: object | None = None,
) -> ModelData:
    """Assemble and fully check a model over the given spectral system.

    The exponents a(i) = E(2i-1) + (1-k)/2 are derived, never taken on
    faith; the default profile is the power law tied to the system gap.
    """
    system.validate()
    m, k = system.m, system.k
    exponents = tuple(system.E_of(2 * i - 1) + (1 - k) // 2 for i in range(1, m + 1))
    model = ModelData(
        n=m + 2,
        p=p,
        eps=eps,
        system=system,
        a=exponents,
        f=f if f is not None else HomogeneousF(k),
    )
    failures = check_model(model)
    if failures:
        raise ValueError("; ".join(failures))
    return model


def check_model(model: ModelData) -> tuple[str, ...]:
    """Every structural identity of the model, in exact arithmetic.

    Covers: spectral axioms, dimension bookkeeping, the derived properties
    a(1) = 1 and a(i) + a(m+1-i) = 0, both halves of the bridging identity,
    the conjugation exponent a(1) - a(m) = 2 behind C A C^-1 = q**2 A, and
    profile consistency.  Returns one message per failure, empty when sound.
    """
    failures = list(model.system.axiom_failures())
    m, k = model.system.m, model.system.k
    if model.n != m + 2:
        failures.append(f"dimension n = {model.n} but system order gives {m + 2}")
    if model.n % 2 == 0 or model.n < 5:
        failures.append(f"dimension n must be odd and >= 5, got {model.n}")
    if model.eps not in (1, -1):
        failures.append(f"eps must be +-1, got {model.eps}")
    if model.p < 3:
        failures.append(f"trace parameter p must be >= 3, got {model.p}")
    if len(model.a) != m:
        failures.append(f"a has {len(model.a)} entries, expected {m}")
    if len(model.a) != m or len(model.system.E) != 2 * m:
        return tuple(failures)  # slot accessors below would be meaningless

    a = model.a
    if a[0] != 1:
        failures.append(f"a(1) = {a[0]}, expected 1")
    for i in range(1, m + 1):
        if a[i - 1] + a[m - i] != 0:
            failures.append(f"a({i}) + a({m + 1 - i}) = {a[i - 1] + a[m - i]}, not 0")
    # bridging identity, both halves, as ordered integer tuples
    upper = tuple(a[i - 1] + (k - 1) // 2 for i in range(1, m + 1))
    lower = tuple(a[i - 1] - (k + 1) // 2 for i in range(1, m + 1))
    if upper != tuple(model.system.E_of(2 * i - 1) for i in range(1, m + 1)):
        failures.append("bridging identity fails on odd slots: a(i) + (k-1)/2 != E(2i-1)")
    if lower != tuple(model.system.E_of(2 * i) for i in range(1, m + 1)):
        failures.append("bridging identity fails on even slots: a(i) - (k+1)/2 != E(2i)")
    if a[0] - a[m - 1] != 2:
        failures.append(f"a(1) - a(m) = {a[0] - a[m - 1]}, conjugation needs 2")
    profile_k = getattr(model.f, "k", None)
    if profile_k is not None and profile_k != k:
        failures.append(f"profile gap {profile_k} disagrees with system gap {k}")
    profile_p = getattr(model.f, "p", None)
    if profile_p is not None and profile_p != model.p:
        failures.append(
            f"profile trace parameter {profile_p} disagrees with model p = {model.p}"
        )
    return tuple(failures)


def kappa(model: ModelData, t: float, v: Sequence[float]) -> float:
    """The tt-metric coefficient kappa(t, v) = f(t) <v, v> + <A v, v>.

    The shift term reduces to eps * v_m**2 because A only moves e_m to e_1.
    """
    vm = v[model.m - 1]
    return model.f.value(t) * model.inner(v, v) + model.eps * vm * vm


# ---------------------------------------------------------------------------
# exact identity checks (dual routes; the cheap integer route lives in
# check_model, the field-arithmetic routes below recompute the same content
# from field products over Q(sqrt(d))).  C = diag(q**a(i)) is diagonal, so
# entry (i, j) of C M C**s is q**a(i) M_ij q**(s a(j)) and only the nonzero
# entries of M need a product; a zero entry is zero on both sides.


def _nonzero_entries(rows):
    return [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]


def conjugation_checks(model: ModelData) -> dict[str, bool]:
    """C A C**-1 = q**2 A, certified twice.

    The exponent route checks a(1) - a(m) = 2 (all other entries of A
    vanish); the field route forms q**a(i) A_ij q**-a(j) over Q(sqrt(d))
    for every nonzero entry of A and compares it with q**2 A_ij.
    """
    ctx = model.context()
    exponent_route = model.a[0] - model.a[model.m - 1] == 2
    q2 = ctx.q_power(2)
    field_route = all(
        ctx.q_power(model.a[i]) * ctx.element(v) * ctx.q_power(-model.a[j])
        == q2 * ctx.element(v)
        for i, j, v in _nonzero_entries(model.shift_rows())
    )
    return {"exponent_route": exponent_route, "field_route": field_route}


def isometry_checks(model: ModelData) -> dict[str, bool]:
    """C^T h C = h: exponent route a(i) + a(m+1-i) = 0, then the field
    route, which forms q**a(i) h_ij q**a(j) over Q(sqrt(d)) for every
    nonzero entry of h and compares it with h_ij (C^T = C)."""
    ctx = model.context()
    m = model.m
    exponent_route = all(model.a[i] + model.a[m - 1 - i] == 0 for i in range(m))
    field_route = all(
        ctx.q_power(model.a[i]) * ctx.element(v) * ctx.q_power(model.a[j])
        == ctx.element(v)
        for i, j, v in _nonzero_entries(model.h_rows())
    )
    return {"exponent_route": exponent_route, "field_route": field_route}


def curvature_identities(model: ModelData) -> dict[str, bool]:
    """The curvature claims as exact identities, for every profile.

    The metric is g = kappa dt**2 + dt ds + h(dv, dv) with h = `h_rows()`,
    A = `shift_rows()` and kappa = f(t) v^T h v + v^T A^T h v.  kappa is
    quadratic in v, so its v-Hessian H = f (h + h^T) + S, S = h A + A^T h,
    does not depend on v, and the only curvature block is
    R_titj = -H_ij / 2 (with its four index placements).  The Ricci tensor
    is rho dt**2 with rho = g^ij R_itjt = -tr(h^-1 H) / 2, the scalar
    curvature is 0 (g^tt = 0), and the Weyl block is
    W_titj = -H_ij / 2 - rho h_ij / m = f W1 + W0, where, once h is
    symmetric with h**2 = 1 (so h^-1 = h),

        W1 = -h + tr(h h) / m * h,    W0 = -S / 2 + tr(h S) / (2 m) * h.

    None of this reads f, so the first four flags are decided
    coefficientwise in integers from h and A alone:

    * weyl_parallel: h is symmetric, h**2 = 1 and W1 = 0, so W = W0 is
      constant, d_t W = f' W1 = 0 and d_v W = 0.  Nothing depends on s and
      g^{t.} = 2 delta^._s, so Gamma^t = 0, and the only Christoffel symbol
      with an upper v index is Gamma^i_tt.  W has no s component, so the
      Gamma^s terms of nabla_e W_abcd vanish, and a Gamma^i_tt term needs
      e = t and a t in the slot it replaces; W is nonzero only with one t
      in each pair, so that pair is (t, t), where the two terms
      Gamma^i_tt (W_itcd + W_ticd) cancel by antisymmetry.  So nabla W = 0.
    * weyl_trace_free: tr(h S) = 0, so W's only block is -S / 2.
    * weyl_nonzero: S != 0, so W != 0 and the metric is not conformally
      flat.
    * olszak_rank_two: rank S = 1.  The 2-forms W(e_a, e_b, ., .) are
      multiples of dt ^ (S_i. dv), so xi ^ W(e_a, e_b, ., .) = 0 for all
      a, b exactly on span(dt, S_m. dv): the Olszak distribution has rank
      exactly 2 (rank 1 when rank S >= 2).
    * not_locally_symmetric: by the same cancellation nabla R has the one
      block nabla_t R_titj = -f' h_ij, so the metric is locally symmetric
      exactly when f' == 0.  Every profile has the form
      f = t**-2 (c0 + g(log_q t)) with g a 1-periodic trigonometric
      polynomial: c0 = (k**2 - 1) / 4 and g = 0 for the power law.  So
      t**2 f is bounded and periodic in log_q t, a constant f with that
      property is 0, and f' == 0 exactly when f == 0.  The profile's
      `vanishes` decides that from its stored data, with no sampling.
    """
    m = model.m
    h, shift = model.h_rows(), model.shift_rows()
    cols = range(m)

    def product(x, y):
        return [[sum(x[i][l] * y[l][j] for l in cols) for j in cols] for i in cols]

    h_h = product(h, h)
    involution = all(h[i][j] == h[j][i] for i in cols for j in cols) and h_h == [
        [int(i == j) for j in cols] for i in cols
    ]
    m_w1 = [[(sum(h_h[i][i] for i in cols) - m) * v for v in row] for row in h]  # m * W1
    h_a = product(h, shift)
    s = [[h_a[i][j] + h_a[j][i] for j in cols] for i in cols]  # (h A)^T = A^T h
    nonzero = [(i, j) for i in cols for j in cols if s[i][j]]
    # rank S = 1: S != 0, and every 2x2 minor through its first nonzero
    # entry (i0, j0) vanishes, so every row is a multiple of row i0
    rank_one = False
    if nonzero:
        i0, j0 = nonzero[0]
        rank_one = all(s[i][j] * s[i0][j0] == s[i][j0] * s[i0][j] for i in cols for j in cols)
    return {
        "weyl_parallel": involution and not any(any(row) for row in m_w1),
        "weyl_trace_free": sum(h[i][j] * s[j][i] for i in cols for j in cols) == 0,
        "weyl_nonzero": bool(nonzero),
        "olszak_rank_two": rank_one,
        "not_locally_symmetric": involution and not model.f.vanishes,
    }


def bridging_checks(model: ModelData) -> dict[str, bool]:
    """mu+- * q**a(i) lands exactly on q**E(2i-1), q**E(2i).

    The tuple route compares integer exponents; the field route multiplies
    genuine field elements and compares values, which also exercises the
    power cache across the full exponent range of the system.
    """
    m = model.m
    exp_plus, exp_minus = model.mu_exponents
    upper = tuple(model.a[i] + exp_plus for i in range(m))
    lower = tuple(model.a[i] + exp_minus for i in range(m))
    odd_slots = tuple(model.system.E_of(2 * i - 1) for i in range(1, m + 1))
    even_slots = tuple(model.system.E_of(2 * i) for i in range(1, m + 1))
    tuple_route = upper == odd_slots and lower == even_slots
    ctx = model.context()
    mu_plus = ctx.q_power(exp_plus)
    mu_minus = ctx.q_power(exp_minus)
    field_route = all(
        mu_plus * ctx.q_power(model.a[i]) == ctx.q_power(odd_slots[i])
        and mu_minus * ctx.q_power(model.a[i]) == ctx.q_power(even_slots[i])
        for i in range(m)
    ) and mu_plus * mu_minus == ctx.q_inv
    return {"tuple_route": tuple_route, "field_route": field_route}
