"""The ``:predict`` votes extension: per-member vote matrices over HTTP."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api.spec import gaussian
from repro.ensemble import UDTForestClassifier, reduce_votes
from repro.exceptions import ServingError
from repro.serve import ServingClient, create_server


@pytest.fixture(scope="module")
def votes_forest():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(50, 3))
    y = np.where(X[:, 0] * X[:, 1] > 0, "same", "mixed")
    return UDTForestClassifier(
        n_estimators=5, spec=gaussian(w=0.1, s=6), random_state=2
    ).fit(X, y)


@pytest.fixture
def forest_server(tmp_path, votes_forest, serving_model):
    votes_forest.save(tmp_path / "forest.zip")
    serving_model.save(tmp_path / "tree.zip")
    server = create_server(tmp_path, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=5.0)


@pytest.fixture
def client(forest_server):
    return ServingClient(forest_server.url)


def test_full_votes_match_the_offline_member_votes(client, votes_forest, serving_rows):
    payload = client.predict_votes("forest", serving_rows)
    assert payload["model"] == "forest"
    assert payload["n_members"] == 5
    assert payload["n_members_total"] == 5
    assert payload["votes"].shape == (5, len(serving_rows), 2)
    assert np.array_equal(payload["votes"], votes_forest.member_votes(serving_rows))
    reduced = reduce_votes(payload["votes"], payload["n_members_total"])
    assert np.array_equal(reduced, votes_forest.predict_proba(serving_rows))


def test_member_subset_votes(client, votes_forest, serving_rows):
    payload = client.predict_votes("forest", serving_rows, members=[0, 4])
    assert payload["n_members"] == 2
    assert payload["n_members_total"] == 5
    assert np.array_equal(
        payload["votes"], votes_forest.member_votes(serving_rows, members=[0, 4])
    )


def test_votes_on_a_single_tree_model_is_400(client, serving_rows):
    with pytest.raises(ServingError) as error:
        client.predict_votes("tree", serving_rows)
    assert error.value.status == 400
    assert "not a forest" in str(error.value)


def test_out_of_range_members_are_400(client, serving_rows):
    with pytest.raises(ServingError) as error:
        client.predict_votes("forest", serving_rows, members=[7])
    assert error.value.status == 400


def test_members_without_votes_flag_is_400(client, serving_rows):
    with pytest.raises(ServingError) as error:
        client.request_json(
            "/v1/models/forest:predict",
            {"rows": np.asarray(serving_rows).tolist(), "members": [0]},
        )
    assert error.value.status == 400
    assert "votes" in str(error.value)


def test_votes_requests_count_in_metrics(client, serving_rows):
    client.predict_votes("forest", serving_rows)
    snapshot = client.metrics()
    assert snapshot["predict_requests"] == 1
    assert snapshot["rows_total"] == len(serving_rows)


def test_every_votes_request_ends_its_admission(forest_server, client, serving_rows):
    # Served, empty and refused vote requests all end their admission, so
    # the coalescer never lingers for a caller that will not enqueue.
    client.predict_votes("forest", serving_rows)
    client.predict_votes("forest", serving_rows, members=[])
    for name, members in (("tree", None), ("forest", [7])):
        with pytest.raises(ServingError):
            client.predict_votes(name, serving_rows, members=members)
    assert forest_server.engine._admitting == 0
