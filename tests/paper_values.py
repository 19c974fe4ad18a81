"""The published values of the paper that the reproduction is checked against.

Only the *shape* is expected to hold: the absolute values of the silicon
measurements depend on the authors' testbed.
"""

import numpy as np

PAPER_EXPECTATIONS = {
    "table1": {
        "dynamic_power_mw": {0: 1.51, 256: 1.80, 512: 2.09, 1024: 2.66},
        "static_power_uw": {0: 0.404, 256: 0.407, 512: 0.407, 1024: 0.408},
        "share_of_watermark_dynamic": {0: 0.956, 256: 0.968, 512: 0.972, 1024: 0.98},
    },
    "table2": {
        "load_registers": {0.25e-3: 96, 0.5e-3: 192, 1e-3: 384, 1.5e-3: 576, 5e-3: 1921, 10e-3: 3843},
        "overhead_reduction": {0.25e-3: 0.889, 0.5e-3: 0.941, 1e-3: 0.969, 1.5e-3: 0.98, 5e-3: 0.994, 10e-3: 0.997},
    },
    "fig5": {
        "chip1_peak_rho_range": (0.010, 0.025),
        "chip2_peak_rho_range": (0.007, 0.020),
        "noise_floor_abs_max": 0.008,
    },
    "fig6": {
        "repetitions": 100,
        "detection_rate": 1.0,
    },
    "headline_area_reduction": 0.98,
}


def single_resolvable_peak(correlations, threshold=4.0):
    """Whether the peak is the only rotation ``threshold`` sigma above the floor.

    This is the paper's Fig. 5 criterion: each rotation scores
    ``(|c| - |mean_off|) / std_off`` against the mean and standard
    deviation of the off-peak correlations, and only the peak may reach
    ``threshold``.
    """
    correlations = np.asarray(correlations, dtype=np.float64)
    peak = int(np.argmax(np.abs(correlations)))
    off_peak = np.delete(correlations, peak)
    std = float(np.std(off_peak))
    if std == 0.0:
        return abs(correlations[peak]) > 0
    scores = (np.abs(correlations) - abs(float(np.mean(off_peak)))) / std
    return int(np.count_nonzero(scores >= threshold)) == 1 and scores[peak] >= threshold
