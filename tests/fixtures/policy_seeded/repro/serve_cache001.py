# Seeded CACHE001: a get_or_compute call outside the known cache sites;
# build() hands a writeable array to a shared cache, so one caller's
# in-place edit would corrupt every other caller's copy.  The CACHE001
# scan must flag it.
import numpy as np


def serve(cache, key):
    def build():
        return np.zeros(16)

    return cache.get_or_compute(key, build)
