// The host a bench ran on, for the JSON artifacts: a timing is only
// comparable to another taken on the same hardware.
#pragma once

#include <fstream>
#include <string>
#include <thread>

namespace orp::bench {

/// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    for (char& c : model)
      if (c == '"' || c == '\\') c = ' ';  // stays a plain JSON string
    return model;
  }
  return "unknown";
}

/// `"cpu_model": "...", "hardware_concurrency": N` for a JSON object.
inline std::string host_json_fields() {
  return "\"cpu_model\": \"" + cpu_model() +
         "\", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
}

}  // namespace orp::bench
