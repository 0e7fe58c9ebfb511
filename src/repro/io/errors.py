"""Typed IO failures for persisted graph artifacts.

Loaders validate format versions and required keys up front and raise
:class:`CorruptGraphError` — carrying the file path — instead of letting a
numpy/zipfile traceback surface from deep inside a decoder. It subclasses
``ValueError`` so pre-existing ``except ValueError`` call sites and tests
keep working.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union


class CorruptGraphError(ValueError):
    """A persisted graph/CG artifact failed validation while loading.

    Attributes
    ----------
    path:
        The file being read, when the decode ran against a file (None for
        in-memory blobs).
    """

    def __init__(
        self,
        message: str,
        path: Optional[Union[str, Path]] = None,
    ) -> None:
        detail = message
        if path is not None:
            detail += f" [file: {path}]"
        super().__init__(detail)
        self.path = None if path is None else str(path)
