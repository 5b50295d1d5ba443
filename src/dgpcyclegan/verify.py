"""Self-contained verification suites behind the `verify` CLI command.

Each suite cross-checks an optimized code path against an independent route:
hand-derived values, brute-force joint-Gaussian conditioning through an
explicit dense inverse, central finite differences for every gradient, and
per-row calls for every row-batched pass, the full forward pass for the
bank build's stage-limited one, the textbook Adam update for the fused one,
separate backward calls for the gradient formed over several caches at
once, and per-bump and per-streak loops, patch by patch, for the synthetic
patches and whole sets.
Suites only ever touch the filesystem through a temporary directory.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import gp_supervisor
from .data_metrics import (
    CHUNK_ELEMENTS,
    DegradeSpec,
    Patch,
    degrade,
    make_clean,
    make_eval_pairs,
    make_unpaired_sets,
    psnr,
    read_pgm,
    ssim,
    streak_field,
    write_pgm,
)
from .errors import MalformedFile, NotPositiveDefinite, NotSymmetric
from .gp_supervisor import FeatureBank, GpPosterior, gp_condition, pseudo_loss
from .kernels import KernelSpec, base_kernel, effective_kernel, gram
from .linalg import cholesky, solve_posdef
from .nets import ADAM_BLOCK, AdamState, Discriminator, Generator, adam_step
from .trainer import EpochBanks, generator_step_terms


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


def fd_grad(fun: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def brute_force_condition(spec: KernelSpec, s_rows: np.ndarray, z_rows: np.ndarray, query_s: np.ndarray):
    """Condition the full joint Gaussian with an explicit dense inverse.

    Builds the (n+1)-point joint covariance with the noise on the whole
    diagonal and reads the conditional mean and variance off the blocks.
    gp_condition builds the same joint covariance (the "joint Gram blocks"
    row checks it against separate kernel calls); the conditioning here is
    independent of its Cholesky factor and solve.
    """
    n = s_rows.shape[0]
    stacked = np.vstack([s_rows, query_s])
    joint = gram(spec, stacked, stacked) + spec.noise_var * np.eye(n + 1)
    k_bb = joint[:n, :n]
    k_bq = joint[:n, n]
    inv = np.linalg.inv(k_bb)
    mean = k_bq @ inv @ z_rows
    var = float(joint[n, n] - k_bq @ inv @ k_bq)
    return mean, var


# --- suites ----------------------------------------------------------------


class _Check:
    """One row of a suite: `with _Check(rows, name) as check:` runs its body.

    The body reports through check.done(ok, detail).  A body that raises
    becomes a FAIL row holding the exception type and text instead, and the
    suite goes on with its next check.
    """

    def __init__(self, rows: list, name: str):
        self.rows = rows
        self.name = name

    def __enter__(self) -> "_Check":
        return self

    def done(self, ok, detail: str) -> None:
        self.rows.append(CheckResult(self.name, bool(ok), detail))

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None or not issubclass(exc_type, Exception):
            return False
        self.rows.append(CheckResult(self.name, False, f"raised {exc_type.__name__}: {exc}"))
        return True


def linalg_suite() -> list:
    out = []
    rng = np.random.default_rng(101)

    with _Check(out, "identity factorization") as check:
        f = cholesky(np.eye(2))
        check.done(np.allclose(f.lower, np.eye(2)) and f.jitter_used == 0.0, "L == I, jitter 0")

    with _Check(out, "hand 2x2 factorization") as check:
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expect = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        check.done(float(np.max(np.abs(f.lower - expect))) < 1e-12, "L == [[2,0],[1,sqrt(2)]]")

    with _Check(out, "indefinite rejected") as check:
        try:
            cholesky(np.diag([1.0, -1.0]))
            check.done(False, "no error raised")
        except NotPositiveDefinite:
            check.done(True, "NotPositiveDefinite")

    with _Check(out, "asymmetric rejected") as check:
        try:
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))
            check.done(False, "no error raised")
        except NotSymmetric:
            check.done(True, "NotSymmetric")

    with _Check(out, "hand 2x2 solve") as check:
        x = solve_posdef(cholesky(np.array([[4.0, 2.0], [2.0, 3.0]])), np.array([1.0, 0.0]))
        check.done(float(np.max(np.abs(x - [0.375, -0.25]))) < 1e-12, "x == (0.375, -0.25)")

    with _Check(out, "solve residuals (200 random)") as check:
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 17))
            b_mat = rng.standard_normal((n, n))
            a = b_mat.T @ b_mat + np.eye(n)
            rhs = rng.standard_normal(n)
            f = cholesky(a)
            x = solve_posdef(f, rhs)
            res = np.linalg.norm((a + f.jitter_used * np.eye(n)) @ x - rhs)
            worst = max(worst, res / (1.0 + np.linalg.norm(rhs)))
        check.done(worst <= 1e-8, f"worst rel residual {worst:.2e}")

    with _Check(out, "one solve vs two triangular solves (50 + jittered)") as check:
        worst = solve_route_error(0)
        check.done(worst <= SOLVE_ROUTE_TOL, f"worst rel err {worst:.2e} (bound {SOLVE_ROUTE_TOL:g})")

    with _Check(out, "factor round-trip (dims 1..16)") as check:
        worst = 0.0
        for n in range(1, 17):
            b_mat = rng.standard_normal((n, n))
            a = b_mat.T @ b_mat + np.eye(n)
            f = cholesky(a)
            recon = f.lower @ f.lower.T - (a + f.jitter_used * np.eye(n))
            worst = max(worst, float(np.max(np.abs(recon))) / float(np.max(np.abs(a))))
        check.done(worst <= 1e-10, f"worst scaled error {worst:.2e}")

    return out


# Bound on the relative gap between solve_posdef and the two-triangle route.
# Both are backward stable, so they differ by about cond * eps; every case
# here keeps cond(A + jitter * I) below 1e5.
SOLVE_ROUTE_TOL = 1e-10


def solve_route_error(seed: int) -> float:
    """Worst relative gap between solve_posdef and two triangular solves on its Cholesky factor.

    The reference route is written out here: y = L^-1 b, then x = L^-T y, each
    through np.linalg.solve on a triangle.  Covers 50 random stacks with
    vector and matrix right-hand sides, and one stack whose middle item has
    eigenvalue -5e-5, so only the last rung of the jitter ladder factors it;
    inf when that stack comes back without jitter.
    """

    def gap(a, b):
        f = cholesky(a)
        col = b[..., None] if b.ndim == a.ndim - 1 else b  # a stack of vectors as columns
        y = np.linalg.solve(f.lower, col)
        ref = np.linalg.solve(f.lower.swapaxes(-2, -1), y).reshape(b.shape)
        return f, _rel(solve_posdef(f, b), ref)

    rng = np.random.default_rng(7000 + seed)
    worst = 0.0
    for _ in range(50):
        n, m, batch = (int(v) for v in rng.integers(1, (17, 5, 4)))
        b_mat = rng.standard_normal((batch, n, n))
        a = b_mat.swapaxes(-2, -1) @ b_mat + np.eye(n)
        worst = max(worst, gap(a, rng.standard_normal((batch, n, m)))[1])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    indefinite = (q * [2.0, 1.0, -5e-5]) @ q.T
    stack = np.stack([np.eye(3) * 2.0, indefinite, np.diag([1.0, 2.0, 3.0])])
    for b in (rng.standard_normal((3, 3)), rng.standard_normal((3, 3, 2))):
        f, err = gap(stack, b)
        if f.jitter_used == 0.0:
            return float("inf")
        worst = max(worst, err)
    return worst


def kernels_suite() -> list:
    out = []
    rng = np.random.default_rng(202)
    spec1 = KernelSpec.homogeneous(depth=1)

    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])  # squared distance exactly 2
    with _Check(out, "SE zero distance") as check:
        check.done(base_kernel(spec1, 0, x, x) == 1.0, "k(x,x) == 1")
    with _Check(out, "SE at squared distance 2") as check:
        check.done(abs(base_kernel(spec1, 0, x, y) - np.exp(-1.0)) < 1e-15, "k == exp(-1)")

    with _Check(out, "symmetry in (x, y)") as check:
        ok = True
        for fam in ("se", "lin", "sc"):
            spec = KernelSpec.homogeneous(family=fam, depth=1, beta=1.3, gamma=0.7)
            for _ in range(10):
                u, v = rng.standard_normal((2, 5))
                ok = ok and base_kernel(spec, 0, u, v) == base_kernel(spec, 0, v, u)
        check.done(ok, "all families")

    with _Check(out, "depth-1 equals base kernel") as check:
        spec = KernelSpec.homogeneous(depth=1, beta=1.7, gamma=0.9)
        worst = max(
            abs(effective_kernel(spec, u, v) - base_kernel(spec, 0, u, v))
            for u, v in (rng.standard_normal((2, 4)) for _ in range(10))
        )
        check.done(worst <= 1e-15, f"max diff {worst:.1e}")

    with _Check(out, "self-similarity equals beta_L^2") as check:
        ok = True
        for depth in (1, 2, 3, 4):
            spec = KernelSpec(
                families=("se",) * depth,
                beta=tuple(0.8 + 0.2 * i for i in range(depth)),
                gamma=tuple(1.1 + 0.1 * i for i in range(depth)),
            )
            v = rng.standard_normal(6)
            ok = ok and abs(effective_kernel(spec, v, v) - spec.signal_var) <= 1e-12
        check.done(ok, "depths 1..4")

    with _Check(out, "depth-2 hand value") as check:
        val = effective_kernel(KernelSpec.homogeneous(depth=2), x, y)
        check.done(abs(val - 0.664567) < 1e-6, f"{val:.6f} vs 0.664567")

    spec4 = KernelSpec.homogeneous(depth=4)
    with _Check(out, "gram + noise is PD (100 sets)") as check:
        ok = True
        max_jitter = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 33))
            d = int(rng.integers(1, 65))
            rows = rng.standard_normal((n, d))
            k = gram(spec4, rows, rows)
            if not np.array_equal(k, k.T):
                ok = False
            f = cholesky(k + spec4.noise_var * np.eye(n))
            max_jitter = max(max_jitter, f.jitter_used)
        check.done(ok and max_jitter == 0.0, f"max jitter {max_jitter:g}")

    with _Check(out, "SE monotone decreasing and in (0, 1]") as check:
        base_v = np.zeros(3)
        dists = np.linspace(0.1, 4.0, 15)
        vals = [effective_kernel(spec4, base_v, np.array([d, 0.0, 0.0])) for d in dists]
        mono = all(a > b for a, b in zip(vals, vals[1:]))
        bounded = all(0.0 < v <= 1.0 for v in vals)
        check.done(mono and bounded, "15 sorted distances")
    return out


def gp_suite() -> list:
    out = []
    rng = np.random.default_rng(303)
    spec1 = KernelSpec.homogeneous(depth=1)

    z = np.array([0.5, -2.0])
    bank = FeatureBank("clean", s=np.array([[1.0, 2.0]]), z=z[None, :])
    with _Check(out, "one-point closed form") as check:
        post = gp_condition(spec1, bank, [0], np.array([1.0, 2.0]))
        ok = np.allclose(post.pseudo_label, z / 1.01, atol=1e-12)
        ok = ok and abs(post.variance - (1.0 - 1.0 / 1.01 + 0.01)) < 1e-12
        check.done(ok, "mean z/1.01, var 0.019901")

    with _Check(out, "noiseless interpolation") as check:
        spec0 = KernelSpec.homogeneous(depth=1, noise_var=0.0)
        post = gp_condition(spec0, bank, [0], np.array([1.0, 2.0]))
        check.done(np.all(post.pseudo_label == z), "pseudo-label equals stored z")

    spec4 = KernelSpec.homogeneous(depth=4)
    with _Check(out, "brute-force oracle equivalence (100)") as check:
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 17))
            ds = int(rng.integers(1, 9))
            dz = int(rng.integers(1, 9))
            s_rows = rng.standard_normal((n, ds))
            z_rows = rng.standard_normal((n, dz))
            q = rng.standard_normal(ds)
            bank = FeatureBank("clean", s=s_rows, z=z_rows)
            post = gp_condition(spec4, bank, np.arange(n), q)
            mean, var = brute_force_condition(spec4, s_rows, z_rows, q)
            worst = max(worst, _rel(post.pseudo_label, mean), abs(post.variance - var) / max(abs(var), 1e-300))
        check.done(worst <= 1e-8, f"worst rel err {worst:.2e}")

    with _Check(out, "joint Gram blocks vs separate kernel calls (60)") as check:
        worst = joint_gram_error(0)
        check.done(worst <= JOINT_GRAM_TOL, f"worst rel err {worst:.2e} (bound {JOINT_GRAM_TOL:g})")

    with _Check(out, "permutation invariance") as check:
        s_rows = rng.standard_normal((8, 4))
        z_rows = rng.standard_normal((8, 3))
        q = rng.standard_normal(4)
        bank = FeatureBank("clean", s=s_rows, z=z_rows)
        post_a = gp_condition(spec4, bank, np.arange(8), q)
        perm = rng.permutation(8)
        bank_p = FeatureBank("clean", s=s_rows[perm], z=z_rows[perm])
        post_b = gp_condition(spec4, bank_p, np.arange(8), q)
        ok = float(np.max(np.abs(post_a.pseudo_label - post_b.pseudo_label))) <= 1e-12
        ok = ok and abs(post_a.variance - post_b.variance) <= 1e-12
        check.done(ok, "mean and variance stable")

    with _Check(out, "variance bounds and reduction") as check:
        ok = True
        for _ in range(20):
            n = int(rng.integers(2, 10))
            s_rows = rng.standard_normal((n, 3))
            z_rows = rng.standard_normal((n, 2))
            q = rng.standard_normal(3)
            bank = FeatureBank("clean", s=s_rows, z=z_rows)
            prev = None
            for m in range(1, n + 1):
                post = gp_condition(spec4, bank, np.arange(m), q)
                cap = spec4.signal_var + spec4.noise_var
                ok = ok and spec4.noise_var - 1e-12 <= post.variance <= cap + 1e-9
                if prev is not None:
                    ok = ok and post.variance <= prev + 1e-10
                prev = post.variance
        check.done(ok, "nested neighbor sets")

    with _Check(out, "pseudo-loss value and multiplier") as check:
        post = GpPosterior(pseudo_label=np.zeros(2), variance=0.5, neighbor_ids=np.arange(1))
        hand = pseudo_loss(post, np.array([1.0, 1.0]))
        ok = abs(hand - (4.0 + 2.0 * np.log(0.5))) < 1e-12
        vs = [pseudo_loss(GpPosterior(np.zeros(2), v, np.arange(1)), np.array([1.0, 1.0])) - 2 * np.log(v) for v in (0.25, 0.5, 1.0, 2.0)]
        ok = ok and all(a > b for a, b in zip(vs, vs[1:]))
        check.done(ok, "hand value, 1/var weighting")

    with _Check(out, "stacked GP vs per-row calls (B = 1..4, 3 seeds)") as check:
        rel = max(gp_rows_error(seed) for seed in range(3))
        check.done(rel <= 1e-12, f"worst rel err {rel:.2e}")

    with _Check(out, "bank taps vs full-forward taps (exact)") as check:
        bad = sum(bank_tap_mismatches(rows, side) for rows, side in BANK_TAP_CASES)
        cases = ", ".join(f"{rows} rows at {side}x{side}" for rows, side in BANK_TAP_CASES)
        check.done(bad == 0, f"{bad} taps differ in any bit ({cases})")
    return out


# (rows, side) of the bank-tap check: a single image, a few, and the desk and
# gp_wide bank sizes.
BANK_TAP_CASES = ((1, 32), (3, 32), (200, 32), (400, 16))


def bank_tap_mismatches(rows: int, side: int) -> int:
    """Taps of bank_build's stage-limited pass that differ in any bit from Generator.forward's.

    A default-width generator (hidden 128, 32, 32, 128; taps 2 and 3) over
    `rows` random side x side images; counts s and z separately.
    """
    rng = np.random.default_rng(rows * 100 + side)
    gen = Generator(side * side, rng=rng)
    images = list(rng.uniform(0.0, 1.0, (rows, side, side)))
    bank = gp_supervisor.bank_build(images, gen)
    _, s, z, _ = gen.forward(np.stack(images))
    return sum(a.shape != b.shape or a.tobytes() != b.tobytes() for a, b in ((bank.s, s), (bank.z, z)))


# Bound on the relative gap between each block of the joint Gram and the
# separate kernel call for it: the same formulas, with distances summed over
# a larger product.
JOINT_GRAM_TOL = 1e-12


def joint_gram_error(seed: int) -> float:
    """Worst relative gap between joint_gram's blocks and three separate kernel calls.

    For stacks of B = 1..3 queries with k = 1..16 neighbors, the K block must
    match gram(S, S) + noise * I, the query row gram(q, S) and the corner
    effective_kernel(q, q) + noise.  SE at depths 1-4 and every family at depth 1.
    """
    rng = np.random.default_rng(8000 + seed)
    specs = [KernelSpec.homogeneous(depth=d, beta=1.2, gamma=1.4) for d in (1, 2, 3, 4)]
    specs += [KernelSpec.homogeneous(family=f, depth=1, gamma=1.4) for f in ("lin", "sc")]
    worst = 0.0
    for i in range(60):
        spec = specs[i % len(specs)]
        k, ds, batch = (int(v) for v in rng.integers(1, (17, 9, 4)))
        s_nbr = rng.standard_normal((batch, k, ds))
        q = rng.standard_normal((batch, ds))
        joint = gp_supervisor.joint_gram(spec, s_nbr, q)
        worst = max(
            worst,
            _rel(joint[:, :k, :k], gram(spec, s_nbr, s_nbr) + spec.noise_var * np.eye(k)),
            _rel(joint[:, k, :k], gram(spec, q[:, None, :], s_nbr)[:, 0, :]),
            _rel(joint[:, k, k], effective_kernel(spec, q, q) + spec.noise_var),
        )
    return worst


def gp_rows_error(seed: int) -> float:
    """Worst relative gap between stacked GP calls on B = 1..4 query rows and B single-query calls.

    Any kNN id mismatch counts as 1; the posteriors, losses and both gradients are compared.
    """
    rng = np.random.default_rng(4000 + seed)
    spec = KernelSpec.homogeneous(depth=3, beta=1.5, gamma=1.5)
    bank = FeatureBank("clean", s=rng.standard_normal((30, 5)), z=rng.standard_normal((30, 4)))

    def run(qs, qz, z_pred):
        ids = gp_supervisor.knn_select(bank, qz, 7)
        post = gp_condition(spec, bank, ids, qs)
        return ids, (post.pseudo_label, post.variance, pseudo_loss(post, z_pred),
                     gp_supervisor.pseudo_loss_grad(post, z_pred),
                     gp_supervisor.pseudo_loss_query_grad(spec, bank, post, qs, z_pred))

    worst = 0.0
    for b in range(1, 5):
        rows = [rng.standard_normal((b, d)) for d in (5, 4, 4)]
        ids, stacked = run(*rows)
        for i in range(b):
            ids_i, single = run(*(r[i] for r in rows))
            if not np.array_equal(ids[i], ids_i):
                return 1.0
            worst = max(worst, *(_rel(a[i], c) for a, c in zip(stacked, single)))
    return worst


def grads_suite() -> list:
    out = []
    rng = np.random.default_rng(404)

    with _Check(out, "pseudo-loss gradient vs FD (50)") as check:
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 9))
            post = GpPosterior(
                pseudo_label=rng.standard_normal(d),
                variance=float(rng.uniform(0.05, 3.0)),
                neighbor_ids=np.arange(1),
            )
            z = rng.standard_normal(d)
            analytic = gp_supervisor.pseudo_loss_grad(post, z)
            numeric = fd_grad(lambda v: pseudo_loss(post, v), z.copy())
            worst = max(worst, _rel(analytic, numeric))
        check.done(worst < 1e-6, f"worst rel err {worst:.2e}")

    with _Check(out, "generator backward vs FD") as check:
        gen = Generator(9, hidden=(5, 4, 4, 5), tap_s=2, tap_z=3, rng=rng)
        x = rng.standard_normal(9)
        wy = rng.standard_normal(9)
        ws = rng.standard_normal(4)
        wz = rng.standard_normal(4)

        def gen_scalar(params):
            gen.params = params
            y, s, z, _ = gen.forward(x)
            return float(wy @ y.reshape(-1) + ws @ s + wz @ z)

        base = gen.params.copy()
        _, s0, z0, cache = gen.forward(x)
        analytic, _ = gen.backward(cache, wy, grad_s=ws, grad_z=wz)
        numeric = fd_grad(gen_scalar, base.copy())
        gen.params = base
        rel = _rel(analytic, numeric)
        check.done(rel < 1e-4, f"rel err {rel:.2e}")

    with _Check(out, "discriminator backward vs FD") as check:
        disc = Discriminator(9, hidden=(5,), rng=rng)
        xd = rng.standard_normal(9)

        def disc_scalar(params):
            disc.params = params
            score, _ = disc.forward(xd)
            return score

        base_d = disc.params.copy()
        _, cache = disc.forward(xd)
        analytic, _ = disc.backward(cache, 1.0)
        numeric = fd_grad(disc_scalar, base_d.copy())
        disc.params = base_d
        rel = _rel(analytic, numeric)
        check.done(rel < 1e-4, f"rel err {rel:.2e}")

    with _Check(out, "composite objective vs FD (5 seeds)") as check:
        rel = max(end_to_end_grad_error(seed) for seed in range(5))
        check.done(rel < 1e-3, f"worst rel err {rel:.2e}")

    with _Check(out, "3-row nets vs per-row calls (3 seeds)") as check:
        rel = max(net_rows_error(seed) for seed in range(3))
        check.done(rel <= 1e-12, f"worst rel err {rel:.2e}")

    with _Check(out, "2-pair step vs per-pair mean (3 seeds)") as check:
        rel = max(step_rows_error(seed) for seed in range(3))
        check.done(rel <= 1e-12, f"worst rel err {rel:.2e}")

    with _Check(out, "fused Adam vs textbook update (50 steps)") as check:
        err = adam_textbook_error(0)
        check.done(err <= ADAM_TOL, f"rel err {err:.2e} (bound {ADAM_TOL:g}; two blocks and a partial one)")

    with _Check(out, "two-cache param grads vs one-cache backwards") as check:
        err = param_grads_error(0)
        check.done(err <= PARAM_GRADS_TOL, f"worst rel err {err:.2e} (bound {PARAM_GRADS_TOL:g}; generator and discriminator)")

    with _Check(out, "query-gradient toggle vs FD (se, lin, sc; depth 1-3)") as check:
        bank = FeatureBank("clean", s=rng.standard_normal((6, 4)) * 0.7, z=rng.standard_normal((6, 3)))
        q = rng.standard_normal(4) * 0.7
        z_pred = rng.standard_normal(3)
        ids = np.arange(6)
        rel = 0.0
        for family, depth in ((f, d) for f in ("se", "lin", "sc") for d in (1, 2, 3)):
            spec = KernelSpec.heterogeneous(family, depth=depth, gamma=1.5)
            post = gp_condition(spec, bank, ids, q)
            analytic = gp_supervisor.pseudo_loss_query_grad(spec, bank, post, q, z_pred)
            numeric = fd_grad(lambda qv: pseudo_loss(gp_condition(spec, bank, ids, qv), z_pred), q.copy())
            rel = max(rel, _rel(analytic, numeric))
        check.done(rel < 1e-5, f"worst rel err {rel:.2e}")
    return out


def _tiny_nets(rng):
    """Two generators and two discriminators on 4x4 images, small enough for FD checks."""
    gen_wc = Generator(16, hidden=(4, 3, 3, 4), tap_s=2, tap_z=3, rng=rng)
    gen_cw = Generator(16, hidden=(4, 3, 3, 4), tap_s=2, tap_z=3, rng=rng)
    disc_c = Discriminator(16, hidden=(4,), rng=rng)
    disc_w = Discriminator(16, hidden=(4,), rng=rng)
    return gen_wc, gen_cw, disc_c, disc_w


def end_to_end_grad_error(seed: int) -> float:
    """Composite-objective gradient vs FD on a tiny two-generator model.

    Posterior targets are frozen at the base parameters, exactly as a
    training step treats them.  FD differentiates the reported total, so the
    objective written to metrics.csv is the one the gradient descends.
    """
    rng = np.random.default_rng(1000 + seed)
    nets = _tiny_nets(rng)
    gen_wc, gen_cw = nets[:2]
    iw = rng.uniform(0.0, 1.0, (1, 4, 4))
    ic = rng.uniform(0.0, 1.0, (1, 4, 4))
    lam = 0.05

    posts = tuple(
        GpPosterior((rng.standard_normal(3) * 0.3)[None], np.array([rng.uniform(0.2, 1.5)]), np.zeros((1, 1), dtype=int))
        for _ in range(2)
    )

    n_wc = gen_wc.n_params

    def composite(theta):
        gen_wc.params = theta[:n_wc]
        gen_cw.params = theta[n_wc:]
        comps, _, _, _, _ = generator_step_terms(
            *nets, iw, ic, lambda_p=lam, fixed_posteriors=posts, want_grads=False,
        )
        return comps["total"]

    base = np.concatenate([gen_wc.params, gen_cw.params])
    _, caches_wc, caches_cw, _, _ = generator_step_terms(*nets, iw, ic, lambda_p=lam, fixed_posteriors=posts)
    analytic = np.concatenate([gen_wc.param_grads_from(*caches_wc), gen_cw.param_grads_from(*caches_cw)])
    numeric = fd_grad(composite, base.copy(), h=1e-6)
    gen_wc.params = base[:n_wc]
    gen_cw.params = base[n_wc:]
    return _rel(analytic, numeric)


def net_rows_error(seed: int) -> float:
    """Worst relative gap between one 3-row network call and three 1-row calls.

    Outputs, taps, scores and input gradients must match row for row, with
    per-row output and tap gradients injected; parameter gradients must
    match the sum of the per-row ones.
    """
    rng = np.random.default_rng(2000 + seed)
    gen = Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=3, rng=rng)
    disc = Discriminator(16, hidden=(5, 3), rng=rng)
    x = rng.uniform(0.0, 1.0, (3, 4, 4))
    upstream = (rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4)),
                rng.standard_normal((3, 4)), rng.standard_normal(3))

    def run(xs, gy, gs, gz, gd):
        y, s, z, cache = gen.forward(xs)
        pg_gen, gx_gen = gen.backward(cache, gy, grad_s=gs, grad_z=gz)
        score, cache = disc.forward(xs)
        pg_disc, gx_disc = disc.backward(cache, gd)
        return (y, s, z, gx_gen, score, gx_disc), (pg_gen, pg_disc)

    outs, params = run(x, *upstream)
    singles = [run(x[i], *(u[i] for u in upstream)) for i in range(3)]
    worst = max(_rel(out[i], one[0][k]) for i, one in enumerate(singles) for k, out in enumerate(outs))
    return max(worst, *(_rel(p, sum(one[1][k] for one in singles)) for k, p in enumerate(params)))


def step_rows_error(seed: int) -> float:
    """Worst relative gap between a 2-pair generator step and the mean of two 1-pair steps.

    Live banks, the kNN/GP path and the query-gradient term are all on.
    """
    rng = np.random.default_rng(3000 + seed)
    nets = _tiny_nets(rng)
    iw, ic, bank_w, bank_c = (rng.uniform(0.0, 1.0, (n, 4, 4)) for n in (2, 2, 4, 4))
    banks = EpochBanks(gp_supervisor.bank_build(bank_w, nets[0], "weather"),
                       gp_supervisor.bank_build(bank_c, nets[1], "clean"))
    kw = dict(lambda_p=0.05, kernel=KernelSpec.homogeneous(depth=2), banks=banks,
              n_neighbors=3, grad_through_query=True)
    gens = nets[:2]

    def terms(iw, ic):
        comps, *caches, _, _ = generator_step_terms(*nets, iw, ic, **kw)
        return comps, [gen.param_grads_from(*c) for gen, c in zip(gens, caches)]

    comps, grads = terms(iw, ic)
    singles = [terms(iw[i : i + 1], ic[i : i + 1]) for i in range(2)]
    worst = max(_rel(comps[k], np.mean([one[0][k] for one in singles])) for k in comps)
    return max(worst, *(_rel(g, np.mean([one[1][k] for one in singles], axis=0)) for k, g in enumerate(grads)))


# Bound on the fused Adam update's gap to the textbook one, relative to the
# largest single update; rounding alone gives about 5e-14 over 50 steps.
ADAM_TOL = 1e-12
# Bound on the relative gap between one parameter-gradient product over
# several caches' rows and the sum of one backward per cache: a different
# summation order of the same terms.
PARAM_GRADS_TOL = 1e-12


def adam_textbook_error(seed: int, n: int = 2 * ADAM_BLOCK + 40) -> float:
    """Gap between 50 fused adam_step calls and the textbook update written out here.

    The textbook form keeps normalised moments, m = b1 m + (1 - b1) g and
    v = b2 v + (1 - b2) g g, and steps by lr m_hat / (sqrt(v_hat) + eps) with
    the bias-corrected m_hat and v_hat.  Returns the worst parameter gap
    relative to the largest single update, or the moments' relative gap
    (AdamState holds them unnormalised) when that is larger; inf when a call
    does not hand back the params array itself.  The default n spans two
    whole ADAM_BLOCK blocks and a partial one.
    """
    rng = np.random.default_rng(5000 + seed)
    params = rng.standard_normal(n)
    state = AdamState.for_params(params, lr=1e-2)
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
    ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
    gap = largest = moments = 0.0
    for t in range(1, 51):
        g = rng.standard_normal(n)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        update = lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        ref = ref - update
        if adam_step(state, params, g) is not params:
            return float("inf")
        largest = max(largest, float(np.max(np.abs(update))))
        gap = max(gap, float(np.max(np.abs(params - ref))))
        moments = max(moments, _rel(state.m * (1.0 - b1), m), _rel(state.v * (1.0 - b2), v))
    return max(gap / largest, moments)


def param_grads_error(seed: int) -> float:
    """Worst relative gap of the parameter gradient formed over two caches at once.

    For each net kind, two caches of 3 and 2 rows run backward with
    param_grads=False, and param_grads_from(both, out=buf) must equal the
    sum of one fresh backward per cache.  The chain-only calls must give the
    fresh input gradients, and input_grad=False must give None for it and
    the same parameter gradients.  Returns inf when a call does not hand
    back the caller's buffer or leaves out the wrong gradient.
    """
    rng = np.random.default_rng(6000 + seed)
    worst = 0.0
    for net in (Generator(16, hidden=(6, 4, 4, 6), tap_s=2, tap_z=3, rng=rng), Discriminator(16, hidden=(5, 3), rng=rng)):
        caches, fresh = [], []
        for rows in (3, 2):
            cache = net.forward(rng.uniform(0.0, 1.0, (rows, 16)))[-1]
            upstream = rng.standard_normal((rows, net.widths[-1]))
            taps = dict(grad_s=rng.standard_normal((rows, 4)), grad_z=rng.standard_normal((rows, 4))) if isinstance(net, Generator) else {}
            pg, gx = net.backward(cache, upstream, **taps)
            no_pg, chain_gx = net.backward(cache, upstream, **taps, param_grads=False)
            if no_pg is not None:
                return float("inf")
            worst = max(worst, _rel(chain_gx, gx))
            caches.append(cache)
            fresh.append(pg)
        buf = np.full(net.n_params, np.nan)
        if net.param_grads_from(*caches, out=buf) is not buf:
            return float("inf")
        worst = max(worst, _rel(buf, fresh[0] + fresh[1]))
        # The last cache again, without its input gradient.
        pg, gx = net.backward(caches[1], upstream, **taps, out=buf, input_grad=False)
        if pg is not buf or gx is not None:
            return float("inf")
        worst = max(worst, _rel(buf, fresh[1]))
    return worst


def loop_clean_pixels(seed: int, n: int, side: int) -> list:
    """make_clean's pixels written as one `field += bump` step per bump."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:side, 0:side].astype(float)
    out = []
    for _ in range(n):
        field = np.zeros((side, side))
        for _ in range(int(rng.integers(3, 7))):
            cx, cy = rng.uniform(0.0, side, 2)
            sig = rng.uniform(side / 8.0, side / 3.0)
            amp = rng.uniform(0.3, 1.0)
            field += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sig * sig))
        lo, hi = field.min(), field.max()
        out.append((field - lo) / (hi - lo) if hi - lo > 1e-12 else np.zeros_like(field))
    return out


def loop_streak_field(spec: DegradeSpec, shape) -> np.ndarray:
    """streak_field written as one `field += streak` step per streak, exp taken everywhere."""
    h, w = shape
    rng = np.random.default_rng(spec.seed)
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    ct, st = np.cos(spec.streak_angle), np.sin(spec.streak_angle)
    half_diag = 0.5 * np.hypot(h, w)
    sigma = max(spec.streak_width / 2.0, 1e-6)
    field = np.zeros((h, w))
    for _ in range(spec.streak_count):
        offset = rng.uniform(-half_diag, half_diag)
        amp = spec.streak_amplitude * rng.uniform(0.5, 1.0)
        dist = np.abs(-st * (xs - w / 2.0) + ct * (ys - h / 2.0) - offset)
        field += amp * np.exp(-(dist * dist) / (2.0 * sigma * sigma))
    return field


# (shape, spec fields) of each streak case: the default 32x32 patch, whose
# far pixels take exps that underflow or land in the subnormal range, 16x16
# (none do), 11x11 with 3 streaks, a non-square patch, no streaks, one streak
# (its subnormal tail is the whole field there) and amplitude 0.
_STREAK_CASES = (
    ((32, 32), {}),
    ((16, 16), {}),
    ((11, 11), {"streak_count": 3}),
    ((12, 20), {}),
    ((32, 32), {"streak_count": 0}),
    ((32, 32), {"streak_count": 1}),
    ((32, 32), {"streak_amplitude": 0.0}),
)


def loop_degraded_pixels(clean: list, spec: DegradeSpec, first_seed: int) -> list:
    """degrade's pixels for each clean array, patch i's streaks from first_seed + i, through the loops above."""
    fields = (loop_streak_field(replace(spec, seed=first_seed + i), c.shape) for i, c in enumerate(clean))
    return [np.clip(c + f, 0.0, 1.0) for c, f in zip(clean, fields)]


def loop_set_pixels(n: int, spec: DegradeSpec, seed: int, side: int) -> list:
    """make_unpaired_sets' clean and weather pixels, then make_eval_pairs' weather and clean, patch by patch."""
    base = 100003 * seed
    eval_clean = loop_clean_pixels(base + 3, n, side)
    return [
        loop_clean_pixels(base + 1, n, side),
        loop_degraded_pixels(loop_clean_pixels(base + 2, n, side), spec, base + 1000),
        loop_degraded_pixels(eval_clean, spec, base + 500000),
        eval_clean,
    ]


def multi_chunk_n(side: int, spec: DegradeSpec) -> int:
    """A set size that spans at least 3 chunks of both the bump and the streak stacks and ends in a partial one."""
    # A clean patch's stack holds up to 6 bumps; a patch without streaks counts as one.
    per_chunk = [max(1, CHUNK_ELEMENTS // (k * side * side)) for k in (6, max(spec.streak_count, 1))]
    n = 2 * max(per_chunk) + 1
    while any(n % rows == 0 for rows in per_chunk):
        n += 1
    return n


def synthetic_data_mismatches(seed: int) -> int:
    """Arrays of the synthetic data that differ in any bit from the loops above.

    make_clean runs at sides 32, 16 and 11 and streak_field on every case
    of _STREAK_CASES, each with seeds drawn from `seed`.  make_unpaired_sets
    and make_eval_pairs run on each square case at its side, with one
    patch and with multi_chunk_n patches.
    """
    bad = 0
    for side in (32, 16, 11):
        got = [p.pixels for p in make_clean(seed, 4, side)]
        bad += sum(a.tobytes() != b.tobytes() for a, b in zip(got, loop_clean_pixels(seed, 4, side)))
    for shape, fields in _STREAK_CASES:
        for j in range(3):
            spec = DegradeSpec(seed=1000 * seed + j, **fields)
            a, b = streak_field(spec, shape), loop_streak_field(spec, shape)
            bad += a.shape != b.shape or a.tobytes() != b.tobytes()
        if shape[0] != shape[1]:
            continue
        spec = DegradeSpec(**fields)
        for n in (1, multi_chunk_n(shape[0], spec)):
            got = [*make_unpaired_sets(n, spec, seed, shape[0]), *make_eval_pairs(n, spec, seed, shape[0])]
            for stack, want in zip(got, loop_set_pixels(n, spec, seed, shape[0])):
                bad += stack.shape != (n, *shape) or sum(row.tobytes() != w.tobytes() for row, w in zip(stack, want))
    return bad


def metrics_suite() -> list:
    out = []
    rng = np.random.default_rng(505)

    with _Check(out, "psnr unit cases") as check:
        a = np.full((16, 16), 0.2)
        b = np.full((16, 16), 0.3)
        ok = psnr(a, a) == 99.0
        ok = ok and abs(psnr(a, b) - 20.0) < 1e-9
        ok = ok and abs(psnr(np.zeros((8, 8)), np.ones((8, 8)))) < 1e-12
        u, v = rng.uniform(0, 1, (2, 12, 12))
        ok = ok and psnr(u, v) == psnr(v, u)
        check.done(ok, "cap, 20 dB, 0 dB, symmetry")

    with _Check(out, "ssim unit cases") as check:
        img = rng.uniform(0, 1, (32, 32))
        ok = ssim(img, img) == 1.0
        c1 = np.full((16, 16), 0.2)
        c2 = np.full((16, 16), 0.8)
        const = ssim(c1, c2)
        ok = ok and abs(const - 0.4702) < 1e-3
        other = rng.uniform(0, 1, (32, 32))
        ok = ok and abs(ssim(img, other) - ssim(other, img)) < 1e-12
        ok = ok and -1.0 <= ssim(img, other) <= 1.0
        check.done(ok, f"self 1.0, constant pair {const:.4f}")

    with _Check(out, "pgm round trip and truncation") as check, tempfile.TemporaryDirectory() as tmp:
        p = make_clean(7, 1)[0]
        path = Path(tmp) / "t.pgm"
        write_pgm(path, p)
        back = read_pgm(path)
        ok = float(np.max(np.abs(back.pixels - p.pixels))) <= 1.0 / 255.0
        path.write_bytes(path.read_bytes()[:40])
        try:
            read_pgm(path)
            ok = False
        except MalformedFile:
            pass
        check.done(ok, "max error <= 1/255")

    with _Check(out, "degradation additivity") as check:
        p = make_clean(11, 1)[0]
        scaled = Patch(p.pixels * 0.4)
        spec = DegradeSpec(streak_count=4, streak_amplitude=0.2, seed=5)
        field = streak_field(spec, scaled.pixels.shape)
        degraded = degrade(scaled, spec)
        ok = bool(np.all(field >= 0.0))
        ok = ok and np.allclose(degraded.pixels - scaled.pixels, field, atol=1e-12)
        ident = degrade(scaled, DegradeSpec(streak_count=4, streak_amplitude=0.0, seed=5))
        ok = ok and bool(np.all(ident.pixels == scaled.pixels))
        check.done(ok, "field >= 0, amplitude 0 identity")

    with _Check(out, "synthetic data vs per-bump and per-streak loops (exact)") as check:
        bad = sum(synthetic_data_mismatches(seed) for seed in (0, 1, 7))
        check.done(bad == 0, f"{bad} arrays differ in any bit (seeds 0, 1, 7)")
    return out


SUITES = {
    "linalg": linalg_suite,
    "kernels": kernels_suite,
    "gp": gp_suite,
    "grads": grads_suite,
    "metrics": metrics_suite,
}


def run_suites(names=None):
    """Run the named suites (all by default); returns {suite: [CheckResult]}.

    A check that raises is a FAIL row holding the exception type and text;
    the other checks and suites still run.
    """
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {unknown}; available: {list(SUITES)}")
    return {name: SUITES[name]() for name in names}
