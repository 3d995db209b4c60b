"""CPU substrate: timing cores and store buffers."""

from .processor import Core
from .store_buffer import StoreBuffer, StorePushResult

__all__ = ["Core", "StoreBuffer", "StorePushResult"]
