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
    and invertible.
    """

    def __init__(self) -> None:
        self.data_min: np.ndarray | None = None
        self.data_max: np.ndarray | None = None

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

    def transform(self, data: np.ndarray) -> np.ndarray:
        self._require_fitted()
        data = np.asarray(data, dtype=float)
        span = self.data_max - self.data_min
        degenerate = span == 0
        if not degenerate.any():
            return (data - self.data_min) / span
        scaled = (data - self.data_min) / np.where(degenerate, 1.0, span)
        scaled[:, degenerate] = 0.5
        return scaled

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
