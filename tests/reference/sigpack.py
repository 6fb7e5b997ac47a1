"""Page → signature-matrix decoding for the SSF oracle."""

import numpy as np

from repro.access.sigpack import page_bit_array, signatures_per_page
from repro.errors import ConfigurationError
from repro.storage.page import Page


def read_signature_matrix(page: Page, signature_bits: int, count: int) -> np.ndarray:
    """The first ``count`` signatures of a page as a (count, F) 0/1 matrix."""
    capacity = signatures_per_page(page.page_size, signature_bits)
    if not 0 <= count <= capacity:
        raise ConfigurationError(f"count {count} exceeds page capacity {capacity}")
    bits = page_bit_array(page)
    used = bits[: count * signature_bits]
    return used.reshape(count, signature_bits)
