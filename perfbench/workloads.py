"""The benchmark's workloads: seeded inputs and one checked operation each.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned and been checked.  Inputs come only from the
workload seed, through the library's own samplers, with quaternion entries
whose integer components lie in [-BOUND, BOUND].  An op returns True when
its output is exactly right and False when it is wrong; an exception
propagates and is counted as a failed op by the runner.  Inputs are not
screened for genericity.
"""

from __future__ import annotations

import random
import traceback

BOUND = 2


class Workload:
    # Set-ups per run; setup_s is their median.
    setup_repeats = 3
    # Suite trials drawn afresh after the known ZeroInverse defect (minor-grid).
    resampled = 0


class Roundtrip(Workload):
    """recover_params on a point of a random double Bruhat cell of GL_5."""

    name = "roundtrip"
    n = 5
    trace_ops = 60
    # Stratified draw from S_5 x S_5: every u and every v appears once, and
    # op k always pairs the u of length rank LAYOUT[k][0] with the v of
    # length rank LAYOUT[k][1].  The op's cost follows the word length, so
    # fixing the length pairs keeps the seed from changing the work mix; the
    # seed picks the permutations within each length and every parameter.
    LAYOUT = list(
        zip(random.Random(0).sample(range(120), 120), random.Random(1).sample(range(120), 120))
    )

    def set_up(self, qb, rng):
        def by_length():
            perms = list(qb.weyl.all_permutations(self.n))
            rng.shuffle(perms)
            return sorted(perms, key=lambda w: w.length())

        us, vs = by_length(), by_length()
        return [
            qb.sampling.cell_point(rng, us[i], vs[j], BOUND) for i, j in self.LAYOUT
        ]

    def op(self, qb, item):
        x, word, h, t = item
        out = qb.factorize.recover_params(x, word)
        return list(out.h) == h and list(out.t) == t


class MinorGrid(Workload):
    """One Dodgson trial and one Plucker trial of the suite harness at n = 4."""

    name = "minor-grid"
    n = 4
    pool = 1000
    trace_ops = 8
    # Set-up is mostly the re-import, about 40 ms, so take many.
    setup_repeats = 25
    # Suite seeds one trial may use before the known defect fails the op.
    seeds_per_trial = 3
    GRID_CHECKS = ("check_dodgson_grid", "check_minors_plucker_grid")

    def __init__(self):
        self.resampled = 0

    def set_up(self, qb, rng):
        return [rng.randrange(2**31) for _ in range(self.pool)]

    def trial(self, qb, suite, seed):
        """One run_suite trial, drawn afresh after the known library defect.

        A sampled matrix can have a zero quasiminor on the grid.  The grid
        checks then invert it and raise ZeroInverse, where the library's own
        convention is NotGeneric, which with_retries would resample.  The
        matrix is not generic for the identities, so no identity is
        violated; the trial is rerun with the next seed of a chain drawn
        from `seed`, and the event is counted in `resampled` (and, traced,
        in verify.zero_inverse_escapes).  Any other exception propagates.
        """
        for attempt in range(self.seeds_per_trial):
            try:
                return qb.verify.run_suite(suite, self.n, trials=1, seed=seed, bound=BOUND)
            except qb.errors.ZeroInverse as exc:
                frames = {frame.name for frame in traceback.extract_tb(exc.__traceback__)}
                if attempt == self.seeds_per_trial - 1 or not frames & set(self.GRID_CHECKS):
                    raise
                self.resampled += 1
                seed = random.Random(seed).randrange(2**31)

    def op(self, qb, seed):
        reports = [self.trial(qb, suite, seed) for suite in ("dodgson", "plucker")]
        return all(r.passed and r.trials == 1 and r.checks > 0 for r in reports)


class Maximal(Workload):
    """All four maximal-cell computations on one point of (w0, w0) in GL_5."""

    name = "maximal"
    n = 5
    pool = 30
    trace_ops = 8

    def set_up(self, qb, rng):
        w0 = qb.weyl.Permutation.longest(self.n)
        return [qb.sampling.cell_point(rng, w0, w0, BOUND) for _ in range(self.pool)]

    def op(self, qb, item):
        x, word, h, t = item
        fz = qb.factorize
        out = fz.recover_params(x, word)
        ok = list(out.h) == h and list(out.t) == t
        ok = fz.factor_u_w0(x).replay() == x and ok
        ok = fz.factor_w0_v(x).replay() == x and ok
        return fz.verify_double_ratios(x).all_passed and ok


WORKLOADS = {w.name: w for w in (Roundtrip(), MinorGrid(), Maximal())}
