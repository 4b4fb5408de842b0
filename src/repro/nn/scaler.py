"""Min-max scaling of model inputs and targets.

The paper normalises point coordinates and block ids into the unit range
before training ("For ease of model training, the point coordinates and block
IDs are normalized into the unit range", Section 6.1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MinMaxScaler"]


class MinMaxScaler:
    """Scale each column of a 2-D array linearly into ``[0, 1]``.

    Columns with zero range map to 0.5 so that constant features stay finite
    and invertible.  The row forms (:meth:`transform_one`, and
    :meth:`transform` over a list of rows) compute ``(value - min) / span``
    in plain Python, the same operation per element as the array form.
    """

    def __init__(self) -> None:
        self.data_min: np.ndarray | None = None
        self.data_max: np.ndarray | None = None
        # (data_min, data_max, mins, spans): the fit's arrays and, as Python
        # floats, what the row forms compute with; built on first use
        self._row_form: tuple | None = None

    def __getstate__(self) -> dict:
        # the row form is a cache: pickles and copies carry the fit only
        state = self.__dict__.copy()
        state.pop("_row_form", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._row_form = None

    @property
    def is_fitted(self) -> bool:
        return self.data_min is not None

    def fit(self, data: np.ndarray) -> "MinMaxScaler":
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("expected a 2-D array")
        if data.shape[0] == 0:
            raise ValueError("cannot fit a scaler on an empty array")
        self.data_min = data.min(axis=0)
        self.data_max = data.max(axis=0)
        return self

    def transform(self, data: np.ndarray | list) -> np.ndarray | list:
        """Scale an ``(n, d)`` array, or a list of ``n`` rows (the engine's
        small requests) into a list of ``n`` row lists with no NumPy work."""
        if isinstance(data, list):
            return [self.transform_one(row) for row in data]
        self._require_fitted()
        data = np.asarray(data, dtype=float)
        span = self.data_max - self.data_min
        degenerate = span == 0
        if not degenerate.any():
            return (data - self.data_min) / span
        scaled = (data - self.data_min) / np.where(degenerate, 1.0, span)
        scaled[:, degenerate] = 0.5
        return scaled

    def transform_one(self, features) -> list[float]:
        """Scale one row (a sequence of ``d`` floats) into a list."""
        row_form = self._row_form
        if not (row_form and row_form[0] is self.data_min and row_form[1] is self.data_max):
            self._require_fitted()
            row_form = self._row_form = (
                self.data_min,
                self.data_max,
                self.data_min.tolist(),
                (self.data_max - self.data_min).tolist(),
            )
        return [
            (value - low) / span if span != 0.0 else 0.5
            for value, low, span in zip(features, row_form[2], row_form[3])
        ]

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        return self.fit(data).transform(data)

    def inverse_transform(self, scaled: np.ndarray) -> np.ndarray:
        self._require_fitted()
        scaled = np.asarray(scaled, dtype=float)
        span = self.data_max - self.data_min
        return scaled * span + self.data_min

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("scaler must be fitted before use")
