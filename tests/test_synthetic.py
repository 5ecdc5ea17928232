import hashlib

import pytest

from docexpand.cli import main
from docexpand.synthetic import MAX_PRODUCTS, generate, write_corpus

# sha256 of every file write_corpus writes, recorded before generate stopped
# keeping a token set per product; a changed RNG draw or token test shows here
GOLDEN = {
    (0, 300, 60): {
        "baseline_query_predictions.jsonl":
            "94b526d2e12af19a880ee2ae41fc61ada7fbf7a8607be5fa89d2e0c568767c15",
        "engagement.jsonl": "e08ed428099d98c6e6ca35ea6e41f98d1f002534579a96cb3c16e80ca5100f1d",
        "gold_expansions.jsonl":
            "a6b933339f7e402f8570526d8f7f2fb8c6be1616a27e629549ef94935e850d15",
        "heldout_pairs.jsonl": "9a4cd6f79c5bf206478153f4901b224ee1091577be7cdd61c6caa3ddf9f84f00",
        "products.jsonl": "70a891ce81df755cffb0ea19afa97a2c24b0467f651eab218359cfd368ef3402",
    },
    (7, 1000, 200): {
        "baseline_query_predictions.jsonl":
            "7f46bd3eb69db766fbbe96efe68450153bf830ecff6fdc81369fc1830249519c",
        "engagement.jsonl": "d04a3e236a27839e14bc2bbacdbcb7844a714d2713f66c790a29940ea35fc57a",
        "gold_expansions.jsonl":
            "f8b6838bee50e46f40bbd5af6e5c0a1441ade7910efb57ebc8123bac84de7a3b",
        "heldout_pairs.jsonl": "75db55869a3f0d7f6efa82303ce6248ca7f178cde3b70d7e9ac138ba75f07e4a",
        "products.jsonl": "e1f8b9b39d0a73ae35b309c279b0cdd27b739c1e51881dd5f18275a161a46fce",
    },
}


@pytest.mark.parametrize("n_products, n_heldout", [(0, 0), (5, 6), (5, -1),
                                                    (MAX_PRODUCTS + 1, 0)])
def test_generate_rejects_sizes_out_of_range(n_products, n_heldout):
    with pytest.raises(ValueError, match="n_products|n_heldout"):
        generate(n_products=n_products, n_heldout=n_heldout)


@pytest.mark.parametrize("seed, n_products, n_heldout", sorted(GOLDEN))
def test_written_corpus_matches_golden_hashes(tmp_path, seed, n_products, n_heldout):
    write_corpus(generate(seed, n_products, n_heldout), tmp_path)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN[seed, n_products, n_heldout]


def test_a_single_product_generates_for_every_seed(tmp_path):
    for seed in range(60):    # some seeds draw a query from another product's title
        corpus = generate(seed, 1, 0)
        assert [p.id for p in corpus.products] == [corpus.products[0].id]
        assert {pair.product_id for pair in corpus.engagement} <= {corpus.products[0].id}
    assert main(["gen-synthetic", "--seed", "5", "--products", "1", "--heldout", "0",
                 "--out", str(tmp_path / "one")]) == 0
