"""Provider abstraction: HTTP chat clients, scripted replay, and caching.

Every completion funnels through :meth:`Provider.complete`, which owns
retries, rate limiting, token accounting, and digests.  Nothing outside
this module performs network I/O.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .files import (
    array_of, checked, is_bool, is_int, is_number, is_object, is_str, json_object, json_value,
    optional, read_input, write_text_atomic,
)

log = logging.getLogger(__name__)


class GatewayError(Exception):
    """Base class for provider failures."""


class ConfigurationError(GatewayError):
    """Provider configuration is unusable (bad config, missing auth)."""


class ProviderError(GatewayError):
    """A provider failed to answer."""

    def __init__(self, message: str, transient: bool = True):
        super().__init__(message)
        self.transient = transient


class ScriptExhaustedError(ProviderError):
    """The scripted provider ran out of queued responses.

    Deliberately loud and non-retryable: a silently looping script would
    hide nondeterminism in tests.
    """

    def __init__(self, provider_id: str):
        super().__init__(f"scripted provider {provider_id!r} has no responses left",
                         transient=False)


def prompt_sha(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def exchange_digest(provider_id: str, model: str, prompt: str) -> str:
    payload = "\x00".join((provider_id, model, prompt)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def estimate_tokens(text: str) -> int:
    return len(text.split())


class Exchange(NamedTuple):
    """One prompt/response round trip with its accounting facts."""

    provider_id: str
    model: str
    prompt: str
    response: str
    prompt_digest: str
    input_tokens: int
    output_tokens: int
    estimated: bool = False   # token counts are estimates, not provider-reported

# A cache entry is an ``Exchange`` as its ``_asdict()`` writes it.
_EXCHANGE_FIELDS = (
    ("provider_id", is_str, "a string"),
    ("model", is_str, "a string"),
    ("prompt", is_str, "a string"),
    ("response", is_str, "a string"),
    ("prompt_digest", is_str, "a string"),
    ("input_tokens", is_int, "an integer"),
    ("output_tokens", is_int, "an integer"),
    ("estimated", is_bool, "a boolean"),
)


def _is_count(value: Any) -> bool:
    return is_int(value) and value >= 1


# The range of each retry and pacing setting ``Provider`` takes, as a ``checked`` table.
_RANGES = (
    ("attempts", _is_count, "an integer >= 1"),
    ("rpm_limit", optional(_is_count), "an integer >= 1"),
    ("max_concurrency", _is_count, "an integer >= 1"),
    ("backoff", lambda value: is_number(value) and value >= 0, "a number >= 0"),
)
# The range of each request setting only ``HttpChatProvider`` takes.
_HTTP_RANGES = (
    ("timeout", lambda value: is_number(value) and value > 0, "a number > 0"),
    ("max_tokens", _is_count, "an integer >= 1"),
    ("temperature", lambda value: is_number(value) and value >= 0, "a number >= 0"),
)


class Provider:
    """Shared retry/pacing/accounting shell around a concrete transport."""

    def __init__(
        self,
        provider_id: str,
        model: str,
        attempts: int = 3,
        backoff: float = 0.5,
        rpm_limit: Optional[int] = None,
        max_concurrency: int = 4,
    ):
        checked({"attempts": attempts, "rpm_limit": rpm_limit, "max_concurrency": max_concurrency,
                 "backoff": backoff}, f"provider {provider_id!r}", _RANGES, ConfigurationError)
        self.id = provider_id
        self.model = model
        self.attempts = attempts
        self.backoff = backoff
        self.rpm_limit = rpm_limit
        self._pace_lock = threading.Lock()
        self._earliest_next = 0.0
        self._slots = threading.Semaphore(max_concurrency)

    # transport hook ------------------------------------------------------

    def _fetch(self, prompt: str) -> Tuple[str, Optional[int], Optional[int]]:
        """Return (response text, reported input tokens, reported output tokens)."""
        raise NotImplementedError

    # public surface ------------------------------------------------------

    def _pace(self) -> None:
        if not self.rpm_limit:
            return
        interval = 60.0 / self.rpm_limit
        with self._pace_lock:
            now = time.monotonic()
            wait = self._earliest_next - now
            self._earliest_next = max(now, self._earliest_next) + interval
        if wait > 0:
            time.sleep(wait)

    def complete(self, prompt: str) -> Exchange:
        last_error: Optional[ProviderError] = None
        with self._slots:
            for attempt in range(1, self.attempts + 1):
                self._pace()
                try:
                    response, tokens_in, tokens_out = self._fetch(prompt)
                except ProviderError as exc:
                    last_error = exc
                    if not exc.transient:
                        raise
                    if attempt < self.attempts:
                        delay = self.backoff * (2 ** (attempt - 1))
                        log.warning("provider %s attempt %d failed (%s); retrying in %.2fs",
                                    self.id, attempt, exc, delay)
                        if delay > 0:
                            time.sleep(delay)
                    continue
                estimated = tokens_in is None or tokens_out is None
                return Exchange(
                    provider_id=self.id,
                    model=self.model,
                    prompt=prompt,
                    response=response,
                    prompt_digest=exchange_digest(self.id, self.model, prompt),
                    input_tokens=tokens_in if tokens_in is not None else estimate_tokens(prompt),
                    output_tokens=tokens_out if tokens_out is not None else estimate_tokens(response),
                    estimated=estimated,
                )
        raise ProviderError(
            f"provider {self.id!r} failed after {self.attempts} attempts: {last_error}",
            transient=False,
        )


class ScriptedProvider(Provider):
    """Replays a fixed queue of responses, one per attempted fetch.

    Queue entries are response strings; an entry of the form
    ``{"error": "..."}`` raises instead, which makes failure paths
    scriptable.  An exhausted queue fails loudly.
    """

    def __init__(self, provider_id: str, responses: Sequence[Union[str, Mapping]],
                 model: str = "scripted", **kwargs):
        super().__init__(provider_id, model, **kwargs)
        self._queue: List[Union[str, Mapping]] = list(responses)
        self._queue_lock = threading.Lock()

    def _fetch(self, prompt: str) -> Tuple[str, Optional[int], Optional[int]]:
        with self._queue_lock:
            if not self._queue:
                raise ScriptExhaustedError(self.id)
            entry = self._queue.pop(0)
        if isinstance(entry, Mapping):
            raise ProviderError(entry.get("error", "scripted failure"),
                                transient=entry.get("transient", True))
        return entry, None, None


class HttpChatProvider(Provider):
    """Chat-completion client for the common messages-array wire shape.

    One client covers the vendor APIs that accept
    ``{"model", "messages", "temperature", "max_tokens"}`` and answer with
    ``choices[0].message.content``; header differences live in config.
    """

    def __init__(
        self,
        provider_id: str,
        model: str,
        endpoint: str,
        auth_env: Optional[str] = None,
        temperature: float = 0.0,
        max_tokens: int = 2048,
        timeout: float = 120.0,
        extra_headers: Optional[Mapping[str, str]] = None,
        **kwargs,
    ):
        super().__init__(provider_id, model, **kwargs)
        checked({"timeout": timeout, "max_tokens": max_tokens, "temperature": temperature},
                f"provider {provider_id!r}", _HTTP_RANGES, ConfigurationError)
        self.endpoint = endpoint
        self.auth_env = auth_env
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.extra_headers = dict(extra_headers or {})

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if not token:
                raise ConfigurationError(
                    f"provider {self.id!r} needs auth: set the {self.auth_env} "
                    "environment variable"
                )
            headers["Authorization"] = f"Bearer {token}"
        headers.update(self.extra_headers)
        return headers

    def _fetch(self, prompt: str) -> Tuple[str, Optional[int], Optional[int]]:
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }
        try:
            reply = requests.post(self.endpoint, json=payload,
                                  headers=self._headers(), timeout=self.timeout)
        except requests.RequestException as exc:
            raise ProviderError(f"request failed: {exc}") from exc
        if reply.status_code >= 500:
            raise ProviderError(f"server error {reply.status_code}")
        if reply.status_code >= 400:
            raise ProviderError(f"client error {reply.status_code}: {reply.text[:200]}",
                                transient=False)
        try:
            doc = json_value(reply.content.decode("utf-8"), ProviderError)
            content = doc["choices"][0]["message"]["content"]
        except (ProviderError, UnicodeDecodeError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion response: {exc}") from exc
        if not is_str(content):
            raise ProviderError("malformed completion response: content is not a string")
        # A count that is no integer is estimated instead, so a cache entry reads back.
        usage = doc.get("usage") if is_object(doc.get("usage")) else {}
        counts = usage.get("prompt_tokens"), usage.get("completion_tokens")
        return (content, *(n if is_int(n) else None for n in counts))


def _cached_inner(provider_id: str, inner_id: str) -> ConfigurationError:
    return ConfigurationError(f"cached provider {provider_id!r}: inner provider {inner_id!r} "
                              "is cached too; name a scripted or http-chat provider")


class CachedProvider:
    """Content-addressed cache in front of one scripted or http-chat provider.

    It has a provider's ``id``, ``model`` and ``complete``; a miss is one
    ``inner.complete``, which retries and paces.  Entries live at
    ``<cache>/<digest[:2]>/<digest>.json`` keyed by (inner provider id, model,
    prompt bytes) and are written via temp-file-then-rename so concurrent
    writers stay safe.  A hit is served only if the entry records that same
    request; any other entry at its path is a :class:`ConfigurationError`,
    never an answer.
    """

    def __init__(self, provider_id: str, inner: Provider, cache_dir: Union[str, Path]):
        if isinstance(inner, CachedProvider):
            raise _cached_inner(provider_id, inner.id)
        self.id = provider_id
        self.model = inner.model
        self.inner = inner
        self.cache_dir = Path(cache_dir)

    def _entry_path(self, digest: str) -> Path:
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def complete(self, prompt: str) -> Exchange:
        digest = exchange_digest(self.inner.id, self.inner.model, prompt)
        path = self._entry_path(digest)
        if path.exists():
            where = f"cache entry {path}"
            text, _ = read_input(path, where, ConfigurationError)
            doc = json_object(text, where, ConfigurationError)
            stored = Exchange(**checked(doc, where, _EXCHANGE_FIELDS, ConfigurationError))
            if (stored.prompt, stored.provider_id, stored.model) != (
                prompt, self.inner.id, self.inner.model,
            ):
                raise ConfigurationError(
                    f"cache entry {path} does not record this request (provider "
                    f"{self.inner.id!r}, model {self.inner.model!r}, this prompt); "
                    "it is not served"
                )
            return stored
        exchange = self.inner.complete(prompt)
        write_text_atomic(path, json.dumps(exchange._asdict(), indent=2, sort_keys=True))
        return exchange


def accounting_report(exchanges: Sequence[Exchange]) -> Dict[str, Dict[str, Any]]:
    """Exact per-provider totals over an exchange list."""
    report: Dict[str, Dict[str, Any]] = {}
    for exchange in exchanges:
        entry = report.setdefault(exchange.provider_id, {
            "calls": 0,
            "input_tokens": 0,
            "output_tokens": 0,
            "estimated": False,
        })
        entry["calls"] += 1
        entry["input_tokens"] += exchange.input_tokens
        entry["output_tokens"] += exchange.output_tokens
        entry["estimated"] = entry["estimated"] or exchange.estimated
    return report


# ── configuration ───────────────────────────────────────────────────────

def _is_name(value: Any) -> bool:
    return is_str(value) and value != ""


def _is_response(value: Any) -> bool:
    """A scripted response: a string, or ``{"error": ...}`` to script a failure."""
    return is_str(value) or (is_object(value) and is_str(value.get("error"))
                             and optional(is_bool)(value.get("transient")))


_ID_KEY = (("id", _is_name, "a non-empty string"),)

_SCRIPTED_KEYS = (
    ("model", optional(is_str), "a string"),
    ("script", _is_name, "a non-empty string"),
)

# Keys of http-chat entries, named as ``HttpChatProvider`` takes them but for ``headers``.
_HTTP_CHAT_KEYS = (
    ("endpoint", _is_name, "a non-empty string"),
    ("model", _is_name, "a non-empty string"),
    ("headers", optional(lambda value: is_object(value) and all(map(is_str, value.values()))),
     "an object of strings"),
    ("auth_env", optional(is_str), "a string"),
)

_CACHED_KEYS = (
    ("inner", is_str, "a string"),
    ("cache_dir", _is_name, "a non-empty string"),
)


def _build_one(entry: Mapping[str, Any], provider_id: str,
               read: Callable[[Path, str, str], str], base_dir: Path) -> Provider:
    kind = entry.get("kind")
    where = f"provider {provider_id!r}"
    # Passed on as given: the constructor refuses a setting outside its range.
    ranges = _RANGES + (_HTTP_RANGES if kind == "http-chat" else ())
    common = {key: entry[key] for key, _, _ in ranges if entry.get(key) is not None}
    if kind == "scripted":
        if "responses" in entry:
            raise ConfigurationError(f"{where}: 'responses' is no longer a config key; "
                                     "list the responses in a 'script' file")
        fields = checked(entry, where, _SCRIPTED_KEYS, ConfigurationError)
        script_path = base_dir / fields["script"]   # an absolute script stays as it is
        what = f"scripted provider {provider_id!r}: script"
        text = read(script_path, what, f"script:{provider_id}")
        responses = json_value(text, lambda message: ConfigurationError(
            f"{what} {script_path} is {message}"))
        if not array_of(_is_response)(responses):
            raise ConfigurationError(
                f"scripted provider {provider_id!r}: responses must be a JSON array "
                'of strings and {"error": string} objects'
            )
        return ScriptedProvider(provider_id, responses,
                                model=fields.get("model", "scripted"), **common)
    if kind == "http-chat":
        fields = checked(entry, where, _HTTP_CHAT_KEYS, ConfigurationError)
        return HttpChatProvider(provider_id, extra_headers=fields.pop("headers", None),
                                **fields, **common)
    raise ConfigurationError(f"unknown provider kind: {kind!r}")


def load_providers(
    config: Sequence[Mapping[str, Any]],
    read: Callable[[Path, str, str], str],
    ids: Sequence[str],
    base_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Provider]:
    """The providers ``ids`` name, and their inner ones, from a config's provider array.

    Every entry's ``id`` is checked first; only the named entries are then
    built, a ``cached`` one over the scripted or http-chat entry its ``inner``
    names.  Relative script/cache paths resolve against ``base_dir``;
    ``read(path, what, key)`` reads each built scripted provider's script under
    the key ``script:<provider id>``.
    """
    base = Path(base_dir or "")
    entries: Dict[str, Mapping[str, Any]] = {}
    for entry in config:
        provider_id = checked(entry, "provider entry", _ID_KEY, ConfigurationError)["id"]
        if provider_id in entries:
            raise ConfigurationError(f"duplicate provider id: {provider_id!r}")
        entries[provider_id] = entry
    providers: Dict[str, Provider] = {}

    def build(provider_id: str) -> Provider:   # a scripted or http-chat entry, once
        if provider_id not in providers:
            providers[provider_id] = _build_one(entries[provider_id], provider_id, read, base)
        return providers[provider_id]

    for provider_id in ids:
        if provider_id not in entries:
            known = ", ".join(sorted(entries)) or "(none configured)"
            raise ConfigurationError(f"unknown provider id {provider_id!r}; configured: {known}")
        entry = entries[provider_id]
        if entry.get("kind") != "cached":
            build(provider_id)
            continue
        fields = checked(entry, f"provider {provider_id!r}", _CACHED_KEYS, ConfigurationError)
        inner_id = fields["inner"]
        if inner_id not in entries:
            raise ConfigurationError(f"cached provider {provider_id!r}: "
                                     f"unknown inner provider {inner_id!r}")
        if entries[inner_id].get("kind") == "cached":
            raise _cached_inner(provider_id, inner_id)
        providers[provider_id] = CachedProvider(provider_id, build(inner_id),
                                                base / fields["cache_dir"])
    return providers
