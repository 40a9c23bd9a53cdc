#include "exp/sweep.hpp"

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/assert.hpp"

namespace amoeba::exp {

unsigned parse_jobs_flag(int& argc, char** argv) {
  unsigned jobs = 1;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    std::string_view value;
    if (arg == "--jobs") {
      AMOEBA_EXPECTS_MSG(i + 1 < argc, "--jobs expects a value");
      value = argv[++i];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      value = arg.substr(7);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    const std::string text{value};
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(text.c_str(), &end, 10);
    AMOEBA_EXPECTS_MSG(!text.empty() && end == text.c_str() + text.size() &&
                           parsed > 0 && parsed <= 1024,
                       "--jobs expects an integer in [1, 1024]");
    jobs = static_cast<unsigned>(parsed);
  }
  argc = out;
  argv[argc] = nullptr;
  return jobs;
}

}  // namespace amoeba::exp
