// A web::PageSink for tests: records each page outcome's tag in arrival
// order and runs an optional hook after recording it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "web/types.h"

namespace adattl::web {

class RecordingSink final : public PageSink {
 public:
  std::vector<std::uint32_t> completed;
  std::vector<std::uint32_t> failed;
  std::function<void(std::uint32_t)> on_completed;
  std::function<void(std::uint32_t)> on_failed;

  void page_completed(std::uint32_t tag) override {
    completed.push_back(tag);
    if (on_completed) on_completed(tag);
  }
  void page_failed(std::uint32_t tag) override {
    failed.push_back(tag);
    if (on_failed) on_failed(tag);
  }
};

}  // namespace adattl::web
