"""Whole-run dense event counts, rebuilt from the flat events for reference.

The pipeline forms one step's counts at a time (``Drivers.step_counts``);
tests compare those, and the arrays the old dense layout held, against
this ``np.add.at`` over every event.
"""

import numpy as np


def dense_counts(drivers, tags=None, n_actions=None):
    """int32 events per (step, mark, path), or per (step, mark, action tag, path)."""
    K, m, P = drivers.grid.n_steps, drivers.marks.n_marks, drivers.n_paths
    if tags is None:
        out = np.zeros((K, m, P), dtype=np.int32)
        np.add.at(out, (drivers.step, drivers.mark_idx, drivers.path), 1)
    else:
        out = np.zeros((K, m, n_actions, P), dtype=np.int32)
        np.add.at(out, (drivers.step, drivers.mark_idx, tags, drivers.path), 1)
    return out


def stacked_step_counts(drivers, tags=None, n_actions=None):
    """Every step's ``Drivers.step_counts`` stacked on a leading step axis."""
    return np.stack([drivers.step_counts(k, tags, n_actions)
                     for k in range(drivers.grid.n_steps)])
