"""The worked examples shipped in graphs/ load, and each file is canonical."""

from pathlib import Path

import pytest

from fuzzydom.fileformat import dumps, load
from fuzzydom.product import direct_product

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"
FILES = sorted(p.name for p in GRAPHS.glob("*.fg"))
PRODUCTS = {
    "k2_low_x_k2_even.fg": ("k2_low.fg", "k2_even.fg"),
    "p3_mixed_x_k2_even.fg": ("p3_mixed.fg", "k2_even.fg"),
}


def test_every_example_file_is_known():
    assert FILES == ["k2_even.fg", "k2_low.fg", "k2_low_x_k2_even.fg",
                     "p3_mixed.fg", "p3_mixed_x_k2_even.fg"]


@pytest.mark.parametrize("name", FILES)
def test_example_file_is_its_own_canonical_dump(name):
    path = GRAPHS / name
    assert dumps(load(str(path))) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_example_product_file_is_the_product_of_its_factors(name):
    left, right = (load(str(GRAPHS / f)) for f in PRODUCTS[name])
    loaded = load(str(GRAPHS / name))
    built = direct_product(left, right)
    assert loaded == built
    assert loaded.product_tag == built.product_tag


def test_readme_example_is_the_saved_layout():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert block == dumps(load(str(GRAPHS / "k2_low.fg")))
