#include "checker.h"

#include <set>
#include <vector>

namespace prodbench {

using exotica::Result;
using exotica::Status;

namespace {

// Answers the native executor's calls from a root's log and notes the
// first call that differs from it.
class ReplayRunner : public exotica::atm::SubTxnRunner {
 public:
  ReplayRunner(const std::vector<Call>& calls, bool allow_reruns)
      : calls_(calls), allow_reruns_(allow_reruns) {}

  Result<bool> Run(const std::string& name) override {
    return Next(name, false);
  }
  Result<bool> Compensate(const std::string& name) override {
    return Next(name, true);
  }

  const std::string& mismatch() const { return mismatch_; }
  bool consumed_all() {
    SkipReruns();
    return pos_ == calls_.size();
  }

 private:
  void SkipReruns() {
    while (allow_reruns_ && pos_ > 0 && pos_ < calls_.size() &&
           calls_[pos_ - 1].committed && calls_[pos_].committed &&
           calls_[pos_].name == calls_[pos_ - 1].name &&
           calls_[pos_].compensation == calls_[pos_ - 1].compensation) {
      ++pos_;
    }
  }

  Result<bool> Next(const std::string& name, bool compensation) {
    auto matches = [&] {
      return pos_ < calls_.size() && calls_[pos_].name == name &&
             calls_[pos_].compensation == compensation;
    };
    if (!matches()) SkipReruns();
    if (!matches()) {
      mismatch_ = "expected " + std::string(compensation ? "C:" : "") + name +
                  " at call " + std::to_string(pos_) + ", log has " +
                  (pos_ < calls_.size()
                       ? (calls_[pos_].compensation ? "C:" : "") +
                             calls_[pos_].name
                       : std::string("nothing"));
      return Status::Aborted(mismatch_);
    }
    return calls_[pos_++].committed;
  }

  const std::vector<Call>& calls_;
  bool allow_reruns_;
  size_t pos_ = 0;
  std::string mismatch_;
};

}  // namespace

std::string CheckRoot(const Root& root, int64_t rc, const CheckSpec& spec,
                      exotica::txn::MultiDatabase* sites) {
  ReplayRunner replay(root.calls, spec.allow_reruns);
  bool committed = false;
  std::set<std::string> effective;
  std::vector<std::string> names;
  if (spec.saga != nullptr) {
    exotica::atm::SagaExecutor native(&replay);
    Result<exotica::atm::SagaOutcome> out = native.Execute(*spec.saga);
    if (!out.ok()) {
      return replay.mismatch().empty() ? out.status().ToString()
                                       : replay.mismatch();
    }
    committed = out->committed;
    effective.insert(out->executed.begin(), out->executed.end());
    for (const std::string& c : out->compensated) effective.erase(c);
    for (const auto& step : spec.saga->steps()) names.push_back(step.name);
  } else {
    exotica::atm::FlexExecutor native(&replay);
    Result<exotica::atm::FlexOutcome> out = native.Execute(*spec.flex);
    if (!out.ok()) {
      return replay.mismatch().empty() ? out.status().ToString()
                                       : replay.mismatch();
    }
    committed = out->committed;
    effective.insert(out->effective.begin(), out->effective.end());
    for (const auto* sub : spec.flex->Subs()) names.push_back(sub->name);
  }
  if (!replay.consumed_all()) return "log has calls the model never makes";
  if (rc != (committed ? 0 : 1)) {
    return "output RC " + std::to_string(rc) + " but the model " +
           (committed ? "committed" : "aborted");
  }
  for (const std::string& name : names) {
    Result<exotica::txn::Site*> site = sites->site(spec.site_of->at(name));
    if (!site.ok()) return site.status().ToString();
    Result<exotica::data::Value> v =
        (*site)->ReadCommitted(InstanceKey(root.id, name));
    if (!v.ok()) return v.status().ToString();
    bool present = !v->is_null();
    if (present != (effective.count(name) > 0)) {
      return "step " + name + (present ? " left an effect it should not have"
                                       : " has no effect but should");
    }
  }
  return {};
}

}  // namespace prodbench
