"""Dense references: whole-run event counts, increments and full-array derivatives.

The pipeline forms one step's counts on its event paths only
(``Drivers.event_counts``) and one step's Brownian increments at a time
(``Drivers.step_dB``); tests compare those against this ``np.add.at``
over every event on every path, and against every step's increments
stacked. It also keeps a derivative that is constant in the state as a
float; :func:`broadcast_twin` gives the model whose derivatives are
full arrays, to compare against.
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
