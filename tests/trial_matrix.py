"""Stack :meth:`repro.power.synthesis.TraceSynthesizer.trial_rows` into a matrix.

The library streams trial rows one at a time into the phase fold; tests
and benchmarks that compare against a materialised ``trials x num_cycles``
matrix build it here.
"""

import numpy as np


def trial_matrix(synthesizer, trials, num_cycles, rng, **trial_kwargs):
    """The streamed trial rows stacked into a ``trials x num_cycles`` matrix.

    ``trial_rows`` reuses one buffer, so each row is copied as it arrives.
    """
    matrix = np.empty((trials, num_cycles), dtype=np.float64)
    rows = synthesizer.trial_rows(trials, num_cycles, rng, **trial_kwargs)
    for index, row in enumerate(rows):
        matrix[index] = row
    return matrix
