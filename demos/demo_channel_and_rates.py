"""Walk through the core pipeline: scene -> channel components -> max-min rates.

Builds the default corridor-junction scene, traces it into the four channel
matrices, and solves the max-min downlink beamformer across a transmit power
sweep with and without the RIS load contribution.
"""

import numpy as np

import risopt as ro

scene = ro.default_scene()
k, m, n = scene.dims
print(f"scene: {k} users, {m} BS antennas, {n} RIS ports at {scene.frequency/1e9:.1f} GHz")

components = ro.synthesize_components(scene)
print(f"|h_u| range: {np.abs(components.h_u).min():.4f} .. {np.abs(components.h_u).max():.4f}")
print(f"coupling |z_ll[0,1]| = {abs(components.z_ll[0,1]):.2f} ohm "
      f"(adjacent ports, half-wavelength spacing)")

sigma2 = ro.noise_power(900.0, 40e6)
print(f"thermal noise kTB = {sigma2:.4e} W")

# a mid-range RIS state: every load at the ON capacitance, each tunable alone
config = ro.RisConfiguration(np.full(n, ro.C_ON), grouping=ro.identity_grouping(n))
z_loads = ro.load_impedances(ro.DEFAULT_VARACTOR, config.capacitances, scene.frequency)
effective = ro.assemble_effective_channel(components, z_loads)

print("\n p_dbm   no-RIS R_min   all-ON RIS R_min   (bps/Hz)")
for p_dbm in (10, 15, 20, 25, 30):
    p_bs = 10 ** ((p_dbm - 30) / 10)
    _, base = ro.duality_beamformer(components.h_u, p_bs, sigma2)
    _, loaded = ro.duality_beamformer(effective, p_bs, sigma2)
    print(f"  {p_dbm:4d}   {base.min_rate:12.4f}   {loaded.min_rate:16.4f}")

print("\nper-user SINR is balanced by the duality fixed point:")
_, report = ro.duality_beamformer(effective, 1.0, sigma2)
print("  SINRs:", np.round(report.sinr / report.sinr.min(), 6), "(relative)")
