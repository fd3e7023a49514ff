# Feed bt_explorer --load-profile a profile CSV holding a non-finite
# cell and require the documented usage exit code (1), not an abort.
#
#   cmake -DEXPLORER=<bt_explorer> -DWORK_DIR=<dir> -P explorer_bad_profile.cmake
foreach(bad nan inf -inf)
    set(csv "${WORK_DIR}/bad_profile_${bad}.csv")
    file(WRITE "${csv}" "stage,pu,mean_s,stddev_s\nmorton,big,${bad},0\n")
    execute_process(
        COMMAND "${EXPLORER}" --device pixel --app octree
                --load-profile "${csv}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR
            "bt_explorer --load-profile with a '${bad}' cell exited "
            "'${rc}', expected 1")
    endif()
endforeach()
