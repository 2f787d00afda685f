"""Unit tests for failure classification and the retry budgets.

In-process and fast: :mod:`repro.runner.retry` is what the engine's
one attempt loop reads, whatever the backend.
"""

from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runner.retry import (
    DETERMINISTIC,
    TIMEOUT,
    TRANSIENT,
    RetryPolicy,
    classify_failure,
    failure_signature,
)


class TestClassification:
    def test_transient_types(self):
        # What a worker death looks like from the parent of a pool.
        for exc in (ConnectionResetError("rst"), BrokenPipeError("pipe"),
                    EOFError(), BrokenExecutor("gone"),
                    BrokenProcessPool("worker died")):
            assert classify_failure(exc) == TRANSIENT

    def test_timeout_types(self):
        assert classify_failure(TimeoutError("slow")) == TIMEOUT

    def test_everything_else_presumed_deterministic(self):
        for exc in (ValueError("bad"), ZeroDivisionError(), RuntimeError("x")):
            assert classify_failure(exc) == DETERMINISTIC

    def test_failure_signature_folds_type_and_message(self):
        sig = failure_signature(ValueError("poison pill n=3"))
        assert sig == "ValueError: poison pill n=3"


class TestRetryPolicy:
    def test_spec_round_trip(self):
        policy = RetryPolicy(max_attempts=3, transient_budget=4)
        assert RetryPolicy.parse("attempts=3,transient=4") == policy
        assert RetryPolicy.parse(" transient=4 , attempts=3 ") == policy

    def test_parse_partial_spec_keeps_defaults(self):
        policy = RetryPolicy.parse("attempts=5")
        assert policy.max_attempts == 5
        assert policy.transient_budget == RetryPolicy().transient_budget

    def test_parse_empty_spec_is_default(self):
        assert RetryPolicy.parse("") == RetryPolicy()

    def test_parse_rejects_unknown_key_and_bad_value(self):
        with pytest.raises(ValueError, match="bad retry-policy term"):
            RetryPolicy.parse("attempts=2,warp=9")
        with pytest.raises(ValueError, match="bad retry-policy term"):
            RetryPolicy.parse("attempts=2,base=0.1")  # backoff keys are gone
        with pytest.raises(ValueError, match="bad retry-policy value"):
            RetryPolicy.parse("attempts=two")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(transient_budget=-1)
        with pytest.raises(TypeError):
            RetryPolicy(base_delay=0.1)

    def test_allows_is_one_based_cap(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(1)
        assert policy.allows(3)
        assert not policy.allows(4)

    def test_transient_budget_exhaustion(self):
        policy = RetryPolicy(transient_budget=2)
        assert policy.allows_transient(0)
        assert policy.allows_transient(1)
        assert not policy.allows_transient(2)
