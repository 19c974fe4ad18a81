# Seeded CONC002: this module starts threads, then fork()s outside the
# supervised pool (pipeline/backends.py).  The CONC002 scan must flag it.
import os
import threading


def serve():
    threading.Thread(target=work).start()


def work():
    os.fork()
