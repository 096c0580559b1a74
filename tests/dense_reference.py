"""Dense references: whole-run event counts, increments and full-array derivatives.

The pipeline forms one step's counts and Brownian increments at a time
(``Drivers.step_counts``, ``Drivers.step_dB``) and every step's counts
on its event paths (``Drivers.event_path_counts``); tests compare those,
and the arrays the old dense layout held, against this ``np.add.at``
over every event, the per-step tagged counts on every path, and the
stacked steps. It also keeps a derivative that is
constant in the state as a float; :func:`broadcast_twin` gives the model
whose derivatives are full arrays, to compare against.
"""

import dataclasses

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


def tagged_step_counts(drivers, k, tags, n_actions):
    """Step k's int64 events per (mark, action tag, path), on every path."""
    ev = drivers.by_step[drivers.offsets[k]:drivers.offsets[k + 1]]
    cell = drivers.mark_idx[ev] * n_actions + tags[ev]
    shape = (drivers.marks.n_marks, n_actions, drivers.n_paths)
    flat = np.bincount(cell * drivers.n_paths + drivers.path[ev], minlength=np.prod(shape))
    return flat.reshape(shape)


def stacked_step_counts(drivers, tags=None, n_actions=None):
    """Every step's counts stacked on a leading step axis, tagged when ``tags`` is given."""
    if tags is None:
        return np.stack([drivers.step_counts(k) for k in range(drivers.grid.n_steps)])
    return np.stack([tagged_step_counts(drivers, k, tags, n_actions)
                     for k in range(drivers.grid.n_steps)])


def stacked_step_dB(drivers):
    """Every step's ``Drivers.step_dB`` stacked on a leading step axis: (K, S, P)."""
    return np.stack([drivers.step_dB(k) for k in range(drivers.grid.n_steps)])


_DERIVATIVES = ("b_x", "sigma_x", "gamma_x", "f_x", "h_x", "g_x")


def broadcast_twin(model):
    """A copy of ``model`` whose every derivative comes back shaped like the state.

    Each derivative returns ``np.asarray(d(...)) + np.zeros_like(x)``, so
    no consumer sees a float; ``x`` is the first argument of ``g_x`` and
    the second of the others.
    """
    def full(d, x_at):
        return lambda *args: np.asarray(d(*args)) + np.zeros_like(args[x_at])

    return dataclasses.replace(model, **{name: full(getattr(model, name), 0 if name == "g_x" else 1)
                                         for name in _DERIVATIVES})
