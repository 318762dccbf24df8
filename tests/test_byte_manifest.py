"""The report's CSV bytes, exit codes and stderr against the committed
manifest (see byte_manifest.py, which regenerates it)."""

import json

import pytest

import byte_manifest


@pytest.fixture(scope="module")
def manifest():
    with open(byte_manifest.MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_manifest_covers_every_run(manifest):
    assert sorted(manifest) == sorted(byte_manifest.RUNS)


@pytest.mark.parametrize("name", sorted(byte_manifest.RUNS))
def test_run_matches_the_manifest(manifest, tmp_path, name):
    assert byte_manifest.run(name, str(tmp_path)) == manifest[name]
