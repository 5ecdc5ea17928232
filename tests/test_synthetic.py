import pytest

from docexpand.synthetic import generate


@pytest.mark.parametrize("n_products, n_heldout", [(0, 0), (5, 6), (5, -1)])
def test_generate_rejects_sizes_out_of_range(n_products, n_heldout):
    with pytest.raises(ValueError, match="n_products|n_heldout"):
        generate(n_products=n_products, n_heldout=n_heldout)
