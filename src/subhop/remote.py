"""Chat-completion-compatible HTTP backend.

Speaks the common JSON-over-HTTP chat API: POST {model, messages,
temperature, max_tokens} and read choices[0].message.content back.
Transient failures (429, 5xx, network errors, a reply that breaks off or
is not HTTP) retry with exponential backoff up to a configured limit;
anything else, a 200 reply whose body is not UTF-8 chat JSON included,
fails immediately.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, Mapping

from .errors import BackendError
from .gateway import BackendResult

logger = logging.getLogger(__name__)

_RETRYABLE = {429, 500, 502, 503, 504}


class RemoteBackend:
    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str = "",
        retry_limit: int = 3,
        backoff_base: float = 0.5,
        timeout: float = 30.0,
        max_in_flight: int = 4,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.model = model
        self._api_key = api_key
        self.retry_limit = retry_limit
        self.backoff_base = backoff_base
        self.timeout = timeout
        self.name = f"remote:{model}"
        self._sleep = sleep
        self._semaphore = threading.Semaphore(max(1, max_in_flight))

    def send(
        self,
        template: str,
        prompt: str,
        variables: Mapping[str, object],
        temperature: float,
        max_tokens: int,
    ) -> BackendResult:
        payload = json.dumps(
            {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": temperature,
                "max_tokens": max_tokens,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"

        attempts = 0
        last_status = 0
        last_body = ""
        while attempts <= self.retry_limit:
            attempts += 1
            try:
                request = urllib.request.Request(
                    self.endpoint, data=payload, headers=headers, method="POST"
                )
                with self._semaphore:  # held per request, never across a backoff
                    with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                        body = resp.read()
                return self._parse(body, attempts)
            except urllib.error.HTTPError as exc:
                last_status = exc.code
                last_body = exc.read().decode("utf-8", errors="replace")
                if exc.code not in _RETRYABLE:
                    raise BackendError(exc.code, last_body) from None
                logger.warning(
                    "backend returned %s for template %s (attempt %d/%d)",
                    exc.code, template, attempts, self.retry_limit + 1,
                )
            except (urllib.error.URLError, http.client.HTTPException, TimeoutError,
                    OSError) as exc:
                last_status = 0
                last_body = str(exc)
                logger.warning(
                    "backend unreachable for template %s (attempt %d/%d): %s",
                    template, attempts, self.retry_limit + 1, exc,
                )
            if attempts <= self.retry_limit:
                # delays are nondecreasing: base * 2^(attempt-1)
                self._sleep(self.backoff_base * (2 ** (attempts - 1)))
        raise BackendError(last_status, last_body)

    def _parse(self, body: bytes, attempts: int) -> BackendResult:
        try:
            data = json.loads(body.decode("utf-8"))
            text = data["choices"][0]["message"]["content"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, IndexError, TypeError):
            shown = body.decode("utf-8", errors="replace")[:200]
            raise BackendError(200, f"malformed completion payload: {shown}") from None
        usage = data.get("usage")
        if not isinstance(usage, dict):
            usage = {}
        # a count that is missing or not an integer reads as 0 tokens
        prompt, completion = usage.get("prompt_tokens"), usage.get("completion_tokens")
        return BackendResult(
            text=text if isinstance(text, str) else "",
            prompt_tokens=prompt if type(prompt) is int else 0,
            completion_tokens=completion if type(completion) is int else 0,
            attempts=attempts,
        )
