// Test helper: turns contract violations into catchable
// util::ContractViolation exceptions for one scope, so tests can assert on
// PWU_REQUIRE/PWU_ENSURE/PWU_ASSERT without death tests.

#pragma once

#include "util/contracts.hpp"

namespace pwu::util {

class ThrowingHandlerScope {
 public:
  ThrowingHandlerScope()
      : previous_(set_contract_handler(
            [](const ContractViolation& v) -> void { throw v; })) {}
  ~ThrowingHandlerScope() { set_contract_handler(previous_); }
  ThrowingHandlerScope(const ThrowingHandlerScope&) = delete;
  ThrowingHandlerScope& operator=(const ThrowingHandlerScope&) = delete;

 private:
  ContractHandler previous_;
};

}  // namespace pwu::util
