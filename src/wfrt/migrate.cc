#include "wfrt/migrate.h"

#include <cstdlib>

#include "common/strings.h"
#include "wf/process.h"

namespace exotica::wfrt {

namespace {

// Parses a signed int field; `ok` accumulates success across fields.
int ParseInt(const std::string& s, bool* ok) {
  char* end = nullptr;
  long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || s.empty()) *ok = false;
  return static_cast<int>(v);
}

// Evals travel as a compact digit string: '-' = -1, '0', '1'.
bool DecodeEvals(const std::string& s, std::vector<int8_t>* out) {
  out->clear();
  out->reserve(s.size());
  for (char c : s) {
    if (c == '-') {
      out->push_back(-1);
    } else if (c == '0') {
      out->push_back(0);
    } else if (c == '1') {
      out->push_back(1);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string DetachedInstance::EncodePayload() const {
  std::string out;
  for (const std::string& image : images) {
    out += EscapeQuoted(image);
    out += '\n';
  }
  return out;
}

bool DetachedInstance::DecodeImages(const std::string& payload,
                                    std::vector<std::string>* images) {
  for (const std::string& line : Split(payload, '\n')) {
    if (line.empty()) continue;
    std::string image;
    if (!UnescapeQuoted(line, &image)) return false;
    images->push_back(std::move(image));
  }
  return true;
}

Result<DetachedInstance> DetachedInstance::DecodePayload(
    const std::string& root_id, const std::string& payload) {
  DetachedInstance d;
  d.root_id = root_id;
  if (!DecodeImages(payload, &d.images)) {
    return Status::Corruption("bad escape in detached-instance payload for " +
                              root_id);
  }
  if (d.images.empty()) {
    return Status::Corruption("empty detached-instance payload for " + root_id);
  }
  return d;
}

std::string EncodeInstanceImage(const ProcessInstance& inst,
                                const std::deque<ProcessInstance>& slots) {
  std::string out;
  // I <id> <process> <version> <parent_instance> <parent_activity>
  out += "I\t" + EscapeQuoted(inst.id) + '\t' +
         EscapeQuoted(inst.definition->name()) + '\t' +
         std::to_string(inst.definition->version()) + '\t' +
         EscapeQuoted(inst.parent_instance) + '\t';
  if (inst.is_child()) {
    out += EscapeQuoted(
        slots[inst.parent].definition->activities()[inst.parent_activity].name);
  }
  out += '\n';
  // F <finished><cancelled><failed><suspended> <retries_used> <reason>
  std::string flags;
  flags += inst.finished ? '1' : '0';
  flags += inst.cancelled ? '1' : '0';
  flags += inst.failed ? '1' : '0';
  flags += inst.suspended ? '1' : '0';
  out += "F\t" + flags + '\t' + std::to_string(inst.retries_used) + '\t' +
         EscapeQuoted(inst.failure_reason) + '\n';
  // D <input image> <output image>
  out += "D\t" + EscapeQuoted(inst.input.Serialize()) + '\t' +
         EscapeQuoted(inst.output.Serialize()) + '\n';
  // A <state> <attempt> <failures> <child> <in evals> <out evals> <in> <out>
  // The wire format keeps evals per-activity and goes through the
  // accessors — images stay readable and version-stable whatever the
  // in-memory layout. Unmaterialized cold containers serialize as ""
  // exactly like pristine ones.
  for (uint32_t aid = 0; aid < inst.activity_count(); ++aid) {
    const wf::NavigationPlan::ActivityInfo& info = inst.plan->activity(aid);
    std::string in_evals, out_evals;
    in_evals.reserve(info.in_control.size());
    for (size_t s = 0; s < info.in_control.size(); ++s) {
      int8_t v = inst.in_eval(aid, static_cast<uint32_t>(s));
      in_evals += v < 0 ? '-' : (v == 0 ? '0' : '1');
    }
    out_evals.reserve(info.out_control.size());
    for (size_t s = 0; s < info.out_control.size(); ++s) {
      int8_t v = inst.out_eval(aid, static_cast<uint32_t>(s));
      out_evals += v < 0 ? '-' : (v == 0 ? '0' : '1');
    }
    const uint32_t child = inst.child(aid);
    out += "A\t" + std::to_string(static_cast<int>(inst.state(aid))) + '\t' +
           std::to_string(inst.attempt(aid)) + '\t' +
           std::to_string(inst.failures(aid)) + '\t' +
           (child == kNoSlot ? "" : EscapeQuoted(slots[child].id)) + '\t' +
           in_evals + '\t' + out_evals + '\t' +
           EscapeQuoted(inst.activity_input(aid).Serialize()) + '\t' +
           EscapeQuoted(inst.activity_output(aid).Serialize()) + '\n';
  }
  return out;
}

Result<InstanceImage> DecodeInstanceImage(const std::string& image) {
  InstanceImage out;
  bool saw_header = false;
  for (const std::string& line : Split(image, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> f = Split(line, '\t');
    Status bad = Status::Corruption("malformed instance image line: " + line);
    if (f[0] == "I") {
      if (f.size() != 6) return bad;
      bool ok = true;
      if (!UnescapeQuoted(f[1], &out.id)) return bad;
      if (!UnescapeQuoted(f[2], &out.process_name)) return bad;
      out.version = ParseInt(f[3], &ok);
      if (!UnescapeQuoted(f[4], &out.parent_instance)) return bad;
      if (!UnescapeQuoted(f[5], &out.parent_activity)) return bad;
      if (!ok) return bad;
      saw_header = true;
    } else if (f[0] == "F") {
      if (f.size() != 4 || f[1].size() != 4) return bad;
      for (char c : f[1]) {
        if (c != '0' && c != '1') return bad;
      }
      out.finished = f[1][0] == '1';
      out.cancelled = f[1][1] == '1';
      out.failed = f[1][2] == '1';
      out.suspended = f[1][3] == '1';
      bool ok = true;
      out.retries_used = ParseInt(f[2], &ok);
      if (!ok || !UnescapeQuoted(f[3], &out.failure_reason)) return bad;
    } else if (f[0] == "D") {
      if (f.size() != 3) return bad;
      if (!UnescapeQuoted(f[1], &out.input_image) ||
          !UnescapeQuoted(f[2], &out.output_image)) {
        return bad;
      }
    } else if (f[0] == "A") {
      if (f.size() != 9) return bad;
      InstanceImage::ActivityImage a;
      bool ok = true;
      a.state = ParseInt(f[1], &ok);
      a.attempt = ParseInt(f[2], &ok);
      a.failures = ParseInt(f[3], &ok);
      if (!ok || a.state < 0 ||
          a.state > static_cast<int>(wf::ActivityState::kDead)) {
        return bad;
      }
      if (!UnescapeQuoted(f[4], &a.child_instance)) return bad;
      if (!DecodeEvals(f[5], &a.incoming_eval) ||
          !DecodeEvals(f[6], &a.outgoing_eval)) {
        return bad;
      }
      if (!UnescapeQuoted(f[7], &a.input_image) ||
          !UnescapeQuoted(f[8], &a.output_image)) {
        return bad;
      }
      out.activities.push_back(std::move(a));
    } else {
      return bad;
    }
  }
  if (!saw_header) {
    return Status::Corruption("instance image missing I header");
  }
  return out;
}

}  // namespace exotica::wfrt
