"""The node Budget: what it spends, when it raises, and what it says."""
from __future__ import annotations

import pytest

from growthlab import Budget, CapacityError


def test_spending_exactly_the_limit_passes():
    budget = Budget(5)
    budget.spend(2)
    budget.spend(3)
    assert budget.spent == 5


@pytest.mark.parametrize("over", [1, 10])
def test_spending_past_the_limit_raises_with_the_stage_set_last(over):
    budget = Budget(5)
    budget.spend(5)
    budget.stage = "a stage"
    with pytest.raises(CapacityError, match=r"^a stage: node budget 5 exceeded$"):
        budget.spend(over)
    # what was spent includes the nodes that overshot
    assert budget.spent == 5 + over
