# Seeded EXC001: a broad except in pipeline/ that neither re-raises nor
# names CellTimeout/SweepInterrupted.  The EXC001 scan must flag it.


def run_cell(cell, record):
    try:
        return cell()
    except Exception as error:
        record(error)
