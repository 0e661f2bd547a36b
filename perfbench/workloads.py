"""The benchmark's four workloads: the CLI calls each one times, how many
operations a round attempts and how many failed, and the checks of the
written files against ``reference`` or against properties the method must
have.  Imported only after ``risopt`` is importable.

Every CLI call passes ``--reproducible`` and never ``--threads``.  The
inputs do not depend on the seed; the seed only chooses which
configurations, combinations and grid points are checked against the
reference.
"""

import csv
import itertools
import json
import math
import os

import numpy as np

import reference as ref
from risopt import cli, coupling
from risopt.beamforming import duality_beamformer, noise_power
from risopt.fileio import save_scene
from risopt.ris import C_OFF, C_ON, DEFAULT_VARACTOR as MODEL
from risopt.scene import default_scene

SIGMA2 = noise_power(cli.DEFAULT_TEMPERATURE, cli.DEFAULT_BANDWIDTH)
RATE_TOL = 1e-6  # bps/Hz; the reference solver agrees to about 5e-9
SINR_RTOL = 1e-6
GAIN_TOL_DB = 1e-6
N_GROUPS = 10  # column pairs of the built-in 20-port scene
SAMPLES = 3  # seeded reference checks per power, combination set or seed
GRID_SAMPLES = 8


def watts(p_dbm):
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def read_csv(path):
    with open(path) as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    return {name: [float(row[name]) for row in rows] for name in rows[0]} if rows else {}


class Checks:
    """Collects failed checks instead of stopping at the first."""

    def __init__(self):
        self.problems = []

    def that(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def close(self, got, want, tol, what):
        return self.that(abs(got - want) <= tol, f"{what}: got {float(got)!r}, reference {float(want)!r}")


class ReferenceScene:
    """Channel components of a scene, traced by the reference tracer."""

    def __init__(self, scene):
        self.scene = scene
        self.walls = [(w.p1, w.p2, complex(w.reflection)) for w in scene.walls]
        panel = scene.unloaded_panel
        self.user_walls = self.walls + ([(panel.p1, panel.p2, complex(panel.reflection))] if panel else [])
        self.h_0 = self.field(scene.bs_elements, scene.ris_ports, self.walls)
        self.z_ll = coupling.synthesize_mutual_impedance(
            scene.ris_ports.shape[0], scene.ris_spacing, scene.frequency, scene.ris_self_impedance
        )

    def field(self, sources, destinations, walls):
        return ref.field_matrix(
            sources, destinations, walls, self.scene.frequency, self.scene.max_reflection_order
        )

    def user_side(self, users):
        """(h_u, g_l) for the given user positions."""
        return (
            self.field(self.scene.bs_elements, users, self.user_walls),
            self.field(self.scene.ris_ports, users, self.walls),
        )

    def loaded(self, h_u, g_l, capacitances):
        z = ref.load_impedances(capacitances, self.scene.frequency, MODEL.r_v, MODEL.l_v)
        return ref.loaded_channel(h_u, self.h_0, g_l, self.z_ll, z)


def onebit_caps(states):
    return np.repeat([C_ON if s else C_OFF for s in states], 2)


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.inputs = os.path.join(work_dir, "inputs")

    def prepare(self):
        """Write the input files; part of set-up."""
        os.makedirs(self.inputs, exist_ok=True)

    def calls(self, out):
        raise NotImplementedError

    def failed(self, out, records):
        """Operations of one round that failed, from the written files."""
        return 0

    def check(self, out, records, rng, checks):
        """Check one round's files; returns the workload's min_rate_bps_hz."""
        raise NotImplementedError


class Exhaustive(Workload):
    name = "exhaustive"
    powers = (10.0, 20.0, 30.0)
    ops_per_round = len(powers) * 2**N_GROUPS

    def calls(self, out):
        return [
            ["exhaustive", "--power-dbm", str(p), "--reproducible", "--out", os.path.join(out, f"p{p:g}")]
            for p in self.powers
        ]

    def failed(self, out, records):
        return sum(read_json(os.path.join(out, f"p{p:g}", "summary.json"))["failures"] for p in self.powers)

    def check(self, out, records, rng, checks):
        refscene = ReferenceScene(default_scene())
        h_u, g_l = refscene.user_side(refscene.scene.user_positions)
        bests = []
        for p in self.powers:
            d = os.path.join(out, f"p{p:g}")
            ranked = read_json(os.path.join(d, "ranked.json"))
            summary = read_json(os.path.join(d, "summary.json"))
            hist = read_csv(os.path.join(d, "histogram.csv"))
            entries = [(tuple(e["states"]), e["min_rate_bps_hz"]) for e in ranked["ranked"]]
            rates = [r for _, r in entries]
            states = {s for s, _ in entries}
            checks.that(
                all(len(s) == N_GROUPS and set(s) <= {0, 1} for s in states),
                f"{p} dBm: a ranked state is not {N_GROUPS} bits",
            )
            checks.that(
                len(states) == len(entries) and len(states) + ranked["failures"] == 2**N_GROUPS,
                f"{p} dBm: {len(states)} distinct states + {ranked['failures']} failures != {2**N_GROUPS}",
            )
            checks.that(summary["evaluated"] == len(entries), f"{p} dBm: evaluated != ranked entries")
            checks.that(sum(hist["count"]) == len(entries), f"{p} dBm: histogram does not sum to evaluated")
            lefts, rights = hist["bin_left"], hist["bin_right"]
            binned = [0] * len(lefts)
            for r in rates:
                i = next((i for i, (lo, hi) in enumerate(zip(lefts, rights)) if lo <= r < hi), None)
                if i is None and r == rights[-1]:
                    i = len(lefts) - 1
                if checks.that(i is not None, f"{p} dBm: rate {r!r} lies in no histogram bin"):
                    binned[i] += 1
            checks.that(binned == [int(c) for c in hist["count"]], f"{p} dBm: histogram counts do not match the rates")
            best_states, best_rate = entries[0]
            checks.that(best_rate == max(rates), f"{p} dBm: first ranked rate is not the maximum")
            checks.that(
                summary["best_min_rate_bps_hz"] == best_rate and tuple(summary["best_states"]) == best_states,
                f"{p} dBm: summary best differs from the ranking",
            )
            bests.append(best_rate)
            checks.close(summary["baseline_min_rate_bps_hz"], ref.max_min_rate(h_u, watts(p), SIGMA2), RATE_TOL, f"{p} dBm no-RIS rate")
            sample = [0] + sorted(rng.choice(np.arange(1, len(entries)), SAMPLES, replace=False).tolist())
            for i in sample:
                s, rate = entries[i]
                h = refscene.loaded(h_u, g_l, onebit_caps(s))
                checks.close(rate, ref.max_min_rate(h, watts(p), SIGMA2), RATE_TOL, f"{p} dBm rate of {s}")
        checks.that(bests == sorted(bests), f"best rate decreases with power: {bests}")
        return bests[-1]


class Perturb(Workload):
    name = "perturb"
    offsets_x = (-0.075, 0.0, 0.075)
    offsets_y = (-0.092, 0.0, 0.092)
    n_users = 3
    ops_per_round = (len(offsets_x) * len(offsets_y)) ** n_users

    def scene(self):
        return default_scene(n_ports=2, max_reflection_order=1, with_grid=False)

    def prepare(self):
        super().prepare()
        save_scene(self.scene(), os.path.join(self.inputs, "light_scene.json"))

    def calls(self, out):
        return [
            ["perturb", "--scene", os.path.join(self.inputs, "light_scene.json"), "--power-dbm", "30",
             "--reproducible", "--out", out]
        ]

    def failed(self, out, records):
        return read_json(os.path.join(out, "summary.json"))["skipped"]

    def check(self, out, records, rng, checks):
        summary = read_json(os.path.join(out, "summary.json"))
        values = read_csv(os.path.join(out, "improvements.csv"))["improvement_bps_hz"]
        hist = read_csv(os.path.join(out, "histogram.csv"))
        checks.that(summary["combinations"] == self.ops_per_round, "combination count is not 729")
        checks.that(
            summary["evaluated"] + summary["skipped"] == self.ops_per_round,
            f"evaluated {summary['evaluated']} + skipped {summary['skipped']} != {self.ops_per_round}",
        )
        checks.that(len(values) == summary["evaluated"], "improvements.csv rows != evaluated")
        checks.that(sum(hist["count"]) == len(values), "histogram does not sum to evaluated")
        for key, fn in (("min", min), ("median", np.median), ("max", max)):
            checks.close(summary[f"{key}_improvement"], float(fn(values)), 1e-12, f"summary {key}")
        offsets = [(dx, dy) for dx in self.offsets_x for dy in self.offsets_y]
        combos = list(itertools.product(range(len(offsets)), repeat=self.n_users))
        skipped = {tuple(r.args[0]) for r in records if r.msg.startswith("combination")}
        checks.that(len(skipped) == summary["skipped"], "skipped combinations and the log disagree")
        # improvements.csv keeps the surviving combinations in order, so a
        # combination's row is its index less the skipped ones before it
        row_of = {}
        for combo in combos:
            if combo not in skipped:
                row_of[combo] = len(row_of)
        zero = (offsets.index((0.0, 0.0)),) * self.n_users
        others = [c for c in row_of if c != zero]
        sample = [zero] + [others[i] for i in sorted(rng.choice(len(others), SAMPLES, replace=False))]
        scene = self.scene()
        refscene = ReferenceScene(scene)
        p = watts(30.0)
        for combo in sample:
            users = scene.user_positions + np.array([offsets[c] for c in combo])
            h_u, g_l = refscene.user_side(users)
            best = max(
                ref.max_min_rate(refscene.loaded(h_u, g_l, onebit_caps([s])), p, SIGMA2) for s in (0, 1)
            )
            want = best - ref.max_min_rate(h_u, p, SIGMA2)
            got = values[row_of[combo]] if row_of[combo] < len(values) else math.nan
            checks.close(got, want, 2 * RATE_TOL, f"improvement of combination {combo}")
        return values[row_of[zero]]


class Gainmap(Workload):
    name = "gainmap"
    beams = 3

    def __init__(self, work_dir):
        super().__init__(work_dir)
        self.grid = default_scene().grid
        self.ops_per_round = self.grid.counts[0] * self.grid.counts[1]

    def calls(self, out):
        return [["gainmap", "--mode", "onebit-exhaustive", "--power-dbm", "30", "--reproducible", "--out", out]]

    def check(self, out, records, rng, checks):
        # the map is drawn for the best 1-bit configuration; ask the program
        # for it (untimed) and rebuild the map at sampled points from it
        best_dir = os.path.join(out, "best")
        rc = cli.main(["optimize", "--mode", "onebit-exhaustive", "--power-dbm", "30", "--reproducible", "--out", best_dir])
        checks.that(rc == 0, f"optimize --mode onebit-exhaustive exited {rc}")
        report = read_json(os.path.join(best_dir, "optimize_report.json"))
        caps = onebit_caps(report["best_states"])
        refscene = ReferenceScene(default_scene())
        h_u, g_l = refscene.user_side(refscene.scene.user_positions)
        h_users = refscene.loaded(h_u, g_l, caps)
        p = watts(30.0)
        checks.close(report["best_min_rate_bps_hz"], ref.max_min_rate(h_users, p, SIGMA2), RATE_TOL, "best 1-bit rate")
        weights = duality_beamformer(h_users, p, SIGMA2)[0].weights
        points = np.array([
            (self.grid.origin[0] + i * self.grid.spacing[0], self.grid.origin[1] + j * self.grid.spacing[1])
            for j in range(self.grid.counts[1]) for i in range(self.grid.counts[0])
        ])
        picks = sorted(rng.choice(len(points), GRID_SAMPLES, replace=False))
        h_grid = refscene.loaded(*refscene.user_side(points[picks]), caps)
        for beam in range(self.beams):
            cols = read_csv(os.path.join(out, f"gainmap_beam{beam + 1}.csv"))
            if not checks.that(len(cols.get("gain_db", ())) == len(points), f"beam {beam + 1}: not {len(points)} rows"):
                continue
            checks.that(
                np.allclose(cols["x_m"], points[:, 0], rtol=0, atol=1e-12)
                and np.allclose(cols["y_m"], points[:, 1], rtol=0, atol=1e-12),
                f"beam {beam + 1}: rows are not on the grid",
            )
            want = 10 * np.log10(np.abs(h_grid @ weights[:, beam]) ** 2 / p)
            for i, w in zip(picks, want):
                checks.close(cols["gain_db"][i], float(w), GAIN_TOL_DB, f"beam {beam + 1} gain at {tuple(points[i].tolist())}")
        return report["best_min_rate_bps_hz"]


class Optimize(Workload):
    name = "optimize"
    seeds = (0, 1, 2)
    ops_per_round = len(seeds)

    def calls(self, out):
        return [
            ["optimize", "--seed", str(s), "--power-dbm", "30", "--reproducible", "--out", os.path.join(out, f"seed{s}")]
            for s in self.seeds
        ]

    def check(self, out, records, rng, checks):
        refscene = ReferenceScene(default_scene())
        h_u, g_l = refscene.user_side(refscene.scene.user_positions)
        p = watts(30.0)
        rates = []
        for s in self.seeds:
            d = os.path.join(out, f"seed{s}")
            trace = read_json(os.path.join(d, "optimize_trace.json"))
            report = read_json(os.path.join(d, "optimize_report.json"))
            config = read_json(os.path.join(d, "ris_config.json"))
            seq = [trace["initial_sinr_min"]] + [st["sinr_min_after"] for st in trace["steps"]]
            checks.that(len(seq) > 1, f"seed {s}: no step accepted")
            checks.that(all(b >= a for a, b in zip(seq, seq[1:])), f"seed {s}: accepted steps decrease the min SINR")
            caps = np.array(config["capacitances_pf"]) * 1e-12
            checks.that(
                np.all(caps >= MODEL.c_min * (1 - 1e-12)) and np.all(caps <= MODEL.c_max * (1 + 1e-12)),
                f"seed {s}: capacitances leave [c_min, c_max]",
            )
            w = np.array(report["beamformer"]["weights"])
            w = w[..., 0] + 1j * w[..., 1]
            checks.close(float(np.sum(np.abs(w) ** 2)), p, 1e-12 * p, f"seed {s}: ||W||^2")
            h = refscene.loaded(h_u, g_l, caps)
            sinr = ref.downlink_sinr(h, w, SIGMA2)
            for k, (got, want) in enumerate(zip(report["report"]["sinr"], sinr)):
                checks.close(got, want, SINR_RTOL * want, f"seed {s}: SINR of user {k}")
            rate = report["report"]["min_rate"]
            checks.that(rate <= ref.max_min_rate(h, p, SIGMA2) + RATE_TOL, f"seed {s}: rate above the max-min optimum")
            rates.append(rate)
        return float(np.mean(rates))


WORKLOADS = {w.name: w for w in (Exhaustive, Perturb, Gainmap, Optimize)}
