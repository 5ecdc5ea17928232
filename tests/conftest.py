import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from docexpand.corpus import Product
from docexpand.synthetic import generate


@pytest.fixture(scope="session")
def small_corpus():
    """Seeded synthetic corpus shared by the slower integration tests."""
    return generate(seed=3, n_products=80, n_heldout=20)


@pytest.fixture()
def swim_product():
    return Product(
        id="p1",
        title="Toddler Swim Vest",
        product_type="vest",
        brand="Dark Lightning",
        color="Blue",
        gender="unisex",
        description="Water wings for the pool.",
    )
