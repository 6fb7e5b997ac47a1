"""Tests for the facility base interface."""

import pytest

from repro.access.base import SearchResult, SetAccessFacility
from repro.objects.oid import OID


class _Stub(SetAccessFacility):
    name = "stub"

    def insert(self, elements, oid):  # pragma: no cover - trivial
        pass

    def delete(self, elements, oid):  # pragma: no cover - trivial
        pass

    def search_superset(self, query):  # pragma: no cover - trivial
        return SearchResult([], exact=True, facility=self.name)

    def search_subset(self, query):  # pragma: no cover - trivial
        return SearchResult([], exact=True, facility=self.name)

    def create_params(self):  # pragma: no cover - trivial
        return "stub", []

    def storage_pages(self):
        return {"a": 2, "b": 3}


class TestSearchResult:
    def test_len_and_repr(self):
        result = SearchResult([OID(1, 1)], exact=False, facility="ssf")
        assert len(result) == 1
        assert "candidate" in repr(result)
        exact = SearchResult([], exact=True, facility="nix")
        assert "exact" in repr(exact)

    def test_detail_defaults_to_empty_dict(self):
        assert SearchResult([], True, "x").detail == {}


class TestBaseFacility:
    def test_total_storage_pages(self):
        assert _Stub().total_storage_pages() == 5

    def test_default_overlap_unsupported(self):
        with pytest.raises(NotImplementedError):
            _Stub().search_overlap(frozenset({1}))

    def test_default_verify_is_noop(self):
        _Stub().verify()
