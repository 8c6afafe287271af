#include "common/result.hpp"

#include <ostream>

namespace bs {

const char* errc_name(Errc code) {
  switch (code) {
    case Errc::ok: return "ok";
    case Errc::timeout: return "timeout";
    case Errc::unavailable: return "unavailable";
    case Errc::not_found: return "not_found";
    case Errc::already_exists: return "already_exists";
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::permission_denied: return "permission_denied";
    case Errc::blocked: return "blocked";
    case Errc::throttled: return "throttled";
    case Errc::out_of_space: return "out_of_space";
    case Errc::conflict: return "conflict";
    case Errc::cancelled: return "cancelled";
    case Errc::io_error: return "io_error";
    case Errc::parse_error: return "parse_error";
    case Errc::unsupported: return "unsupported";
    case Errc::internal: return "internal";
  }
  return "unknown";
}

std::string Error::to_string() const {
  std::string out = errc_name(code);
  if (!message.empty()) {
    out += ": ";
    out += message.view();
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const ErrorText& text) {
  return os << text.view();
}

}  // namespace bs
