"""Alternating optimization plus spatial gain maps for each beam.

Runs the coordinate-ascent optimizer from a random start, then samples the
optimized beams over the observation grid; each map shows the beam focusing
power on its intended user.  CSVs are plot-ready (x, y, gain_db).
"""

import os

import numpy as np

import risopt as ro
from risopt.fileio import write_csv

OUT = "demo-out"
os.makedirs(OUT, exist_ok=True)

scene = ro.default_scene()
components = ro.synthesize_components(scene)
sigma2 = ro.noise_power(900.0, 40e6)
p_bs = 1.0

settings = ro.BcdSettings(t_g=5, rng_seed=0)
trace = ro.alternating_optimize(
    components, ro.DEFAULT_VARACTOR, None, p_bs, sigma2, settings,
    grouping=ro.identity_grouping(20),
)
print(f"optimizer: {len(trace.steps)} accepted steps over {trace.sweeps_run} sweeps")
print(f"min rate {np.log2(1 + trace.initial_sinr_min):.6f}"
      f" -> {np.log2(1 + trace.final_sinr_min):.6f} bps/Hz")
print("optimized capacitances (pF):",
      np.round(trace.final_config.capacitances * 1e12, 3))

# the grid points' channel: their traced rows through the optimized loads
effective = ro.assemble_from_config(
    components, ro.DEFAULT_VARACTOR, trace.final_config
)
points = scene.grid.points()
h_u, g_l = ro.trace_users(scene, points)
h_grid = h_u + g_l @ effective.solved_h0

for beam in range(3):
    gains = ro.evaluate_gain_map(h_grid, trace.final_beamformer, beam)
    db = ro.gain_map_db(gains)
    write_csv(
        os.path.join(OUT, f"gain_map_beam{beam + 1}.csv"),
        {
            "x_m": [float(x) for x, _ in points],
            "y_m": [float(y) for _, y in points],
            "gain_db": [float(g) for g in db],
        },
        comments=(f"beam {beam + 1}: normalized power gain over the grid",),
    )
print(f"maps written to {OUT}/gain_map_beam*.csv")

# the beam contrast is sharpest at the exact user positions (the focusing
# spot is wavelength-scale, finer than the grid spacing)
print("\nnormalized gain at the three user positions (dB):")
for beam in range(3):
    at_users = ro.gain_map_db(
        ro.evaluate_gain_map(effective.matrix, trace.final_beamformer, beam)
    )
    own = at_users[beam]
    others = np.delete(at_users, beam)
    print(f"  beam {beam + 1}: own user {own:7.1f},"
          f" other users {others[0]:7.1f} / {others[1]:7.1f}")
