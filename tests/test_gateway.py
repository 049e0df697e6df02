import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from appatch.gateway import (
    CachedProvider,
    ConfigurationError,
    HttpChatProvider,
    ProviderError,
    ScriptExhaustedError,
    accounting_report,
    exchange_digest,
    load_providers,
)

from conftest import scripted


def test_scripted_responses_replay_in_order():
    provider = scripted(["first", "second", "third"])
    assert provider.complete("a").response == "first"
    assert provider.complete("b").response == "second"
    assert provider.complete("c").response == "third"


def test_scripted_queue_exhaustion_fails_loudly():
    provider = scripted(["only"])
    provider.complete("a")
    with pytest.raises(ScriptExhaustedError):
        provider.complete("b")


def test_scripted_error_entries_consume_retries():
    provider = scripted([{"error": "boom"}, {"error": "boom"}, "recovered"],
                        attempts=3)
    exchange = provider.complete("p")
    assert exchange.response == "recovered"


def test_retries_exhausted_becomes_nontransient_error():
    provider = scripted([{"error": "boom"}] * 3, attempts=3)
    with pytest.raises(ProviderError) as err:
        provider.complete("p")
    assert not err.value.transient


def test_exchange_digest_covers_provider_model_and_prompt():
    a = exchange_digest("p1", "m", "prompt")
    assert a == exchange_digest("p1", "m", "prompt")
    assert a != exchange_digest("p2", "m", "prompt")
    assert a != exchange_digest("p1", "m2", "prompt")
    assert a != exchange_digest("p1", "m", "prompt!")


def test_token_estimates_are_flagged():
    provider = scripted(["two words"])
    exchange = provider.complete("one two three")
    assert exchange.estimated is True
    assert exchange.input_tokens == 3
    assert exchange.output_tokens == 2


def test_cache_hit_returns_identical_exchange(tmp_path):
    inner = scripted(["cached answer"])   # a second fetch would exhaust the script
    provider = CachedProvider("c", inner, tmp_path / "cache")
    first = provider.complete("the prompt")
    second = provider.complete("the prompt")
    assert second == first

    digest = exchange_digest(inner.id, inner.model, "the prompt")
    entry = tmp_path / "cache" / digest[:2] / f"{digest}.json"
    assert entry.is_file()
    stored = json.loads(entry.read_text())
    assert stored["response"] == "cached answer"


@pytest.mark.parametrize("field,value", [
    ("prompt", "another prompt"),
    ("provider_id", "another-provider"),
    ("model", "another-model"),
])
def test_cache_hit_for_another_request_is_refused(tmp_path, field, value):
    """An entry at the request's digest path that records another request
    (a collision, a hand edit, a stale layout) is never served, nor passed on."""
    inner = scripted([])   # asking it would raise ScriptExhaustedError
    provider = CachedProvider("c", inner, tmp_path / "cache")
    digest = exchange_digest(inner.id, inner.model, "the prompt")
    entry = tmp_path / "cache" / digest[:2] / f"{digest}.json"
    entry.parent.mkdir(parents=True)
    planted = {
        "provider_id": inner.id, "model": inner.model, "prompt": "the prompt",
        "response": "planted answer", "prompt_digest": digest,
        "input_tokens": 2, "output_tokens": 2, "estimated": True,
    }
    planted[field] = value
    entry.write_text(json.dumps(planted))
    with pytest.raises(ConfigurationError, match=re.escape(f"cache entry {entry} does not record")):
        provider.complete("the prompt")
    assert json.loads(entry.read_text()) == planted


@pytest.mark.parametrize("stored, problem", [
    ('{"prompt": "hello"', "not valid JSON"),             # torn
    ("[1]", "top level must be an object"),
    ('{"prompt": "hello"}', "'provider_id' must be a string"),
], ids=["torn", "not-an-object", "missing-field"])
def test_corrupt_cache_entry_is_refused(tmp_path, stored, problem):
    """An entry the cache cannot read is a configuration error naming it,
    never a traceback and never an answer."""
    inner = scripted([])   # asking it would raise ScriptExhaustedError
    provider = CachedProvider("c", inner, tmp_path / "cache")
    digest = exchange_digest(inner.id, inner.model, "hello")
    entry = tmp_path / "cache" / digest[:2] / f"{digest}.json"
    entry.parent.mkdir(parents=True)
    entry.write_text(stored)
    with pytest.raises(ConfigurationError, match=re.escape(f"cache entry {entry}: {problem}")):
        provider.complete("hello")
    assert entry.read_text() == stored


def test_cache_entry_that_is_not_utf8_is_refused(tmp_path):
    inner = scripted([])   # asking it would raise ScriptExhaustedError
    provider = CachedProvider("c", inner, tmp_path / "cache")
    digest = exchange_digest(inner.id, inner.model, "hello")
    entry = tmp_path / "cache" / digest[:2] / f"{digest}.json"
    entry.parent.mkdir(parents=True)
    entry.write_bytes(b'{"prompt": "\xff"}')
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"cache entry {entry}: not valid UTF-8 at byte 12")):
        provider.complete("hello")


def test_cache_distinguishes_prompts(tmp_path):
    inner = scripted(["one", "two"])
    provider = CachedProvider("c", inner, tmp_path / "cache")
    assert provider.complete("a").response == "one"
    assert provider.complete("b").response == "two"
    assert provider.complete("a").response == "one"


def test_accounting_empty_is_all_zero():
    assert accounting_report([]) == {}


def test_accounting_sums_are_exact():
    provider = scripted(["x " * 10, "y " * 20])
    e1 = provider.complete("a " * 100)
    e2 = provider.complete("b " * 200)
    report = accounting_report([e1, e2])
    entry = report["scripted"]
    assert entry == {"calls": 2, "input_tokens": 300, "output_tokens": 30,
                     "estimated": True}


def test_cache_serves_entries_that_still_carry_a_latency(tmp_path):
    """Entries written before exchanges dropped their wall-clock field load."""
    inner = scripted([])   # served from disk: asking the script would raise
    provider = CachedProvider("c", inner, tmp_path / "cache")
    digest = exchange_digest(inner.id, inner.model, "old prompt")
    entry = tmp_path / "cache" / digest[:2] / f"{digest}.json"
    entry.parent.mkdir(parents=True)
    entry.write_text(json.dumps({
        "provider_id": inner.id, "model": inner.model, "prompt": "old prompt",
        "response": "old answer", "prompt_digest": digest,
        "input_tokens": 2, "output_tokens": 2, "latency": 0.123,
        "estimated": True,
    }))
    exchange = provider.complete("old prompt")
    assert exchange.response == "old answer"
    assert accounting_report([exchange]) == {inner.id: {
        "calls": 1, "input_tokens": 2, "output_tokens": 2, "estimated": True,
    }}


class _StubHandler(BaseHTTPRequestHandler):
    failures_left = 0
    status = 200   # once ``failures_left`` 500s are spent
    body = {       # a JSON document, or the raw bytes of the answer
        "choices": [{"message": {"content": "stub says hello"}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }
    seen = []      # the headers of each POST, in order

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        type(self).seen.append(self.headers)
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(500)
            self.end_headers()
            return
        body = type(self).body
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server(monkeypatch):
    monkeypatch.setattr(_StubHandler, "seen", [])
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # A short poll interval: shutdown waits out one poll.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    server.shutdown()


def test_http_chat_reads_stub_body(stub_server):
    _StubHandler.failures_left = 0
    provider = HttpChatProvider("h", "test-model", stub_server, backoff=0.0)
    exchange = provider.complete("hello")
    assert exchange.response == "stub says hello"
    assert exchange.input_tokens == 7
    assert exchange.output_tokens == 3
    assert exchange.estimated is False


def test_http_chat_retries_transient_failures(stub_server):
    _StubHandler.failures_left = 2
    provider = HttpChatProvider("h", "test-model", stub_server,
                                attempts=3, backoff=0.0)
    assert provider.complete("hello").response == "stub says hello"


def test_http_chat_answer_without_text_is_a_provider_error(stub_server, monkeypatch):
    _StubHandler.failures_left = 0
    monkeypatch.setattr(_StubHandler, "body", {"choices": [{"message": {"content": None}}]})
    provider = HttpChatProvider("h", "m", stub_server, attempts=1, backoff=0.0)
    with pytest.raises(ProviderError, match="content is not a string"):
        provider.complete("hello")


def test_http_chat_token_counts_that_are_not_integers_are_estimated(stub_server, monkeypatch,
                                                                    tmp_path):
    """Only integer counts are recorded, so the cache can read its entry back."""
    _StubHandler.failures_left = 0
    monkeypatch.setattr(_StubHandler, "body", {
        "choices": [{"message": {"content": "two words"}}],
        "usage": {"prompt_tokens": 7.0, "completion_tokens": "3"},
    })
    provider = CachedProvider("c", HttpChatProvider("h", "m", stub_server, backoff=0.0),
                              tmp_path / "cache")
    first = provider.complete("one two three")
    assert (first.input_tokens, first.output_tokens, first.estimated) == (3, 2, True)
    assert provider.complete("one two three") == first   # served from the entry


def test_http_chat_missing_auth_names_the_env_var(stub_server, monkeypatch):
    monkeypatch.delenv("STUB_KEY", raising=False)
    provider = HttpChatProvider("h", "m", stub_server, auth_env="STUB_KEY",
                                backoff=0.0)
    with pytest.raises(ConfigurationError) as err:
        provider.complete("x")
    assert "STUB_KEY" in str(err.value)


def test_http_chat_client_error_is_not_retried(stub_server, monkeypatch):
    _StubHandler.failures_left = 0
    monkeypatch.setattr(_StubHandler, "status", 404)
    monkeypatch.setattr(_StubHandler, "body", b"no such model")
    provider = HttpChatProvider("h", "m", stub_server, attempts=3, backoff=0.0)
    with pytest.raises(ProviderError) as err:
        provider.complete("hello")
    assert str(err.value) == "client error 404: no such model"
    assert not err.value.transient
    assert len(_StubHandler.seen) == 1


def test_http_chat_refused_connection_is_tried_each_attempt(monkeypatch):
    import requests

    with socket.socket() as sock:   # a port bound, then closed: nothing listens on it
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    posts = []
    real_post = requests.post

    def post(*args, **kwargs):
        posts.append(args)
        return real_post(*args, **kwargs)

    monkeypatch.setattr(requests, "post", post)
    provider = HttpChatProvider("h", "m", f"http://127.0.0.1:{port}/v1/chat", attempts=3,
                                backoff=0.0)
    with pytest.raises(ProviderError) as err:
        provider.complete("hello")
    assert str(err.value).startswith("provider 'h' failed after 3 attempts: request failed: ")
    assert len(posts) == 3


@pytest.mark.parametrize("body, problem", [
    (b"<html>busy</html>", "not valid JSON: Expecting value"),
    (b'{"choices": [{"message": {"content": "a \\ud800 b"}}]}',
     "not valid JSON: unpaired surrogate \\ud800"),
    (b'{"choices": [{"message": {"content": "caf\xe9"}}]}', "'utf-8' codec can't decode"),
    (b'{"choices": []}', "list index out of range"),
], ids=["not-json", "lone-surrogate", "not-utf8", "no-choice"])
def test_http_chat_answer_that_is_no_completion_is_malformed(stub_server, monkeypatch, body,
                                                              problem):
    _StubHandler.failures_left = 0
    monkeypatch.setattr(_StubHandler, "body", body)
    provider = HttpChatProvider("h", "m", stub_server, attempts=1, backoff=0.0)
    with pytest.raises(ProviderError) as err:
        provider.complete("hello")
    assert str(err.value).startswith(f"provider 'h' failed after 1 attempts: "
                                     f"malformed completion response: {problem}")


def test_http_chat_sends_the_token_and_the_configured_headers(stub_server, monkeypatch):
    _StubHandler.failures_left = 0
    monkeypatch.setenv("STUB_KEY", "s3cret")
    provider = load_providers([{"id": "h", "kind": "http-chat", "model": "m",
                                "endpoint": stub_server, "auth_env": "STUB_KEY",
                                "headers": {"X-Team": "appatch"}}], _no_read, ["h"])["h"]
    assert provider.complete("hello").response == "stub says hello"
    [headers] = _StubHandler.seen
    assert headers["Authorization"] == "Bearer s3cret"
    assert headers["X-Team"] == "appatch"


def _no_read(path, what, key):
    """The ``read`` of a configuration that names no script."""
    raise AssertionError(f"{what} {path} read under {key!r}")


def test_load_providers_resolves_cached_inner(tmp_path):
    script = tmp_path / "responses.json"
    script.write_text(json.dumps(["a", "b"]))
    reads = []

    def read(path, what, key):
        reads.append((path, what, key))
        return path.read_text()

    providers = load_providers(
        [
            {"id": "raw", "kind": "scripted", "script": "responses.json"},
            {"id": "front", "kind": "cached", "inner": "raw",
             "cache_dir": "cache"},
            {"id": "unused", "kind": "mystery"},   # not named, so never built
        ],
        read,
        ["front"],
        base_dir=tmp_path,
    )
    assert reads == [(script, "scripted provider 'raw': script", "script:raw")]
    assert providers["front"].inner is providers["raw"]
    assert providers["front"].complete("p").response == "a"
    assert (tmp_path / "cache").is_dir()


def _cached(provider_id, inner):
    return {"id": provider_id, "kind": "cached", "inner": inner, "cache_dir": provider_id}


_RAW = {"id": "raw", "kind": "http-chat", "model": "m", "endpoint": "http://127.0.0.1:9/v1"}


@pytest.mark.parametrize("config, message", [
    ([_cached("c", "c")],
     "cached provider 'c': inner provider 'c' is cached too; name a scripted or http-chat "
     "provider"),
    ([_cached("a", "b"), _cached("b", "raw"), _RAW],
     "cached provider 'a': inner provider 'b' is cached too; name a scripted or http-chat "
     "provider"),
    ([_cached("b", "nope")], "cached provider 'b': unknown inner provider 'nope'"),
], ids=["self", "two", "unknown"])
def test_load_providers_refuses_a_cached_or_unknown_inner(config, message):
    with pytest.raises(ConfigurationError) as err:
        load_providers(config, _no_read, [config[0]["id"]])
    assert str(err.value) == message


def test_a_cache_over_a_cache_is_refused(tmp_path):
    inner = CachedProvider("inner", scripted([]), tmp_path / "a")
    with pytest.raises(ConfigurationError) as err:
        CachedProvider("outer", inner, tmp_path / "b")
    assert str(err.value) == ("cached provider 'outer': inner provider 'inner' is cached too; "
                              "name a scripted or http-chat provider")


@pytest.mark.parametrize("config,fragment", [
    ([{"id": "x", "kind": "mystery"}], "unknown provider kind"),
    ([{"id": "x", "kind": "scripted"}], "'script' must be a non-empty string"),
    ([{"id": "x", "kind": "scripted", "script": "s.json", "responses": ["a"]}],
     "'responses' is no longer a config key"),
    ([{"id": "x", "kind": "http-chat"}], "endpoint"),
    ([{"id": "x", "kind": "cached", "inner": "nope", "cache_dir": "c"}], "inner"),
    ([{"id": "x", "kind": "mystery"}, {"id": "x", "kind": "mystery"}], "duplicate"),
])
def test_load_providers_rejects_bad_config(config, fragment):
    with pytest.raises(ConfigurationError) as err:
        load_providers(config, _no_read, ["x"])
    assert fragment in str(err.value)


@pytest.mark.parametrize("settings, message", [
    ({"attempts": 0}, "'attempts' must be an integer >= 1"),
    ({"attempts": 2.0}, "'attempts' must be an integer >= 1"),
    ({"max_concurrency": -3}, "'max_concurrency' must be an integer >= 1"),
    ({"rpm_limit": -5}, "'rpm_limit' must be an integer >= 1"),
    ({"rpm_limit": 0}, "'rpm_limit' must be an integer >= 1"),
    ({"backoff": -1}, "'backoff' must be a number >= 0"),
    ({"timeout": 0}, "'timeout' must be a number > 0"),
    ({"timeout": "soon"}, "'timeout' must be a number > 0"),
    ({"max_tokens": -1}, "'max_tokens' must be an integer >= 1"),
    ({"max_tokens": 0}, "'max_tokens' must be an integer >= 1"),
    ({"max_tokens": 10.0}, "'max_tokens' must be an integer >= 1"),
    ({"temperature": -7}, "'temperature' must be a number >= 0"),
    ({"temperature": True}, "'temperature' must be a number >= 0"),
], ids=["attempts-zero", "attempts-float", "max-concurrency-negative", "rpm-limit-negative",
        "rpm-limit-zero", "backoff-negative", "timeout-zero", "timeout-string",
        "max-tokens-negative", "max-tokens-zero", "max-tokens-float", "temperature-negative",
        "temperature-bool"])
def test_provider_refuses_settings_out_of_range(settings, message):
    """The constructor holds the ranges a config is read with; nothing is clamped."""
    with pytest.raises(ConfigurationError) as err:
        HttpChatProvider("h", "m", "http://127.0.0.1:9/v1/chat/completions", **settings)
    assert str(err.value) == f"provider 'h': {message}"


def test_rpm_limit_paces_consecutive_calls():
    import time

    provider = scripted(["a", "b", "c"], rpm_limit=3000)  # 20ms interval
    started = time.monotonic()
    for prompt in ("1", "2", "3"):
        provider.complete(prompt)
    assert time.monotonic() - started >= 0.04


def test_no_rpm_limit_means_no_pacing():
    provider = scripted(["a"])
    provider._pace()  # must not raise or sleep
