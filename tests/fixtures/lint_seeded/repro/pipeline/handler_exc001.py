# Seeded EXC001: a broad except in pipeline/ that neither re-raises nor
# names CellTimeout/SweepInterrupted.  CI asserts the linter flags this.


def run_cell(cell, record):
    try:
        return cell()
    except Exception as error:
        record(error)
