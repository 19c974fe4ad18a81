# Seeded CACHE001: build() hands a writeable array to a shared cache, so
# one caller's in-place edit would corrupt every other caller's copy.
# CI asserts the linter flags this.
import numpy as np


def serve(cache, key):
    def build():
        return np.zeros(16)

    return cache.get_or_compute(key, build)
